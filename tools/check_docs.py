#!/usr/bin/env python
"""Execute every fenced Python code block in the documentation.

The README and architecture docs promise runnable examples; this script
keeps that promise honest.  It extracts every ```python fenced block from
the documentation files and executes each block in its own namespace, with
the repository's ``src`` layout importable.  Any exception (including a
failing ``assert``) fails the run with the offending file, block index, and
source line.  A block's label (``README.md:block3``) is its file and its
index there, so prose edits around a block leave its test id alone; the
traceback of a failing block points at the markdown file's own lines.

Used two ways:

* CI: ``python tools/check_docs.py`` (the docs job);
* tier-1: ``tests/test_docs_examples.py`` imports :func:`iter_code_blocks`
  and :func:`run_block` and runs each block as a parametrised test case.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation files whose Python examples must execute.
DOC_FILES: tuple[str, ...] = ("README.md", "docs/architecture.md")

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


class CodeBlock(NamedTuple):
    """One fenced ```python block lifted out of a markdown file."""

    path: str
    index: int
    line: int
    source: str

    @property
    def label(self) -> str:
        return f"{self.path}:block{self.index}"


def iter_code_blocks(paths: tuple[str, ...] = DOC_FILES) -> Iterator[CodeBlock]:
    """Yield every ```python block in the given markdown files, in order."""
    for relative in paths:
        path = REPO_ROOT / relative
        text = path.read_text(encoding="utf-8")
        for index, match in enumerate(_FENCE.finditer(text)):
            line = text[: match.start()].count("\n") + 2  # first source line
            yield CodeBlock(relative, index, line, match.group(1))


def run_block(block: CodeBlock) -> None:
    """Execute one block in a fresh namespace; exceptions propagate."""
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        try:
            import repro  # noqa: F401  (installed package takes precedence)
        except ImportError:
            sys.path.insert(0, source)
    # The source starts with the fence line's own newline; more newlines in
    # front number the compiled lines as the markdown file does.
    padded = "\n" * (block.line - 2) + block.source
    exec(compile(padded, block.path, "exec"), {})


def main() -> int:
    blocks = list(iter_code_blocks())
    if not blocks:
        print("error: no python code blocks found in the documentation", file=sys.stderr)
        return 1
    failures = 0
    for block in blocks:
        try:
            run_block(block)
        except Exception as error:  # noqa: BLE001 - report and keep going
            failures += 1
            print(
                f"FAIL {block.label} (line {block.line}): {type(error).__name__}: {error}",
                file=sys.stderr,
            )
        else:
            print(f"ok   {block.label}")
    if failures:
        print(f"{failures} of {len(blocks)} documentation blocks failed", file=sys.stderr)
        return 1
    print(f"all {len(blocks)} documentation blocks executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
