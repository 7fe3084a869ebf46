"""Run ``repro.cli serve`` with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPANS.json serve [serve options]``.
The wrappers go in before the CLI builds the service; the spans are written
to ``SPANS.json`` when the server exits (SIGINT or SIGTERM).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro import cli

    tracer = layers.Tracer(timing=True)
    layers.install(tracer)
    layers.install_http(tracer)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
