"""Hygiene tests for the public API surface.

A downstream user should be able to rely on ``repro``'s documented exports:
every name in ``__all__`` must resolve, every subpackage must re-export what
its ``__all__`` promises, and the version string must match the packaging
metadata convention.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = (
    "repro.core",
    "repro.latency",
    "repro.cluster",
    "repro.workloads",
    "repro.montecarlo",
    "repro.analysis",
    "repro.analytic",
    "repro.experiments",
    "repro.serving",
    "repro.scenarios",
    "repro.faults",
)


class TestTopLevelExports:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_headline_classes_importable_from_top_level(self):
        assert repro.PBSPredictor is not None
        assert repro.ReplicaConfig(3, 1, 1).is_partial
        assert callable(repro.production_fit)


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackageExports:
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} must declare __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_docstring_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()


class TestDocstringCoverage:
    """Every public module in the package carries a module docstring."""

    def test_every_module_has_a_docstring(self):
        import pkgutil

        package_path = repro.__path__
        missing: list[str] = []
        for module_info in pkgutil.walk_packages(package_path, prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ and module.__doc__.strip()):
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"

    #: Modules whose documented (``__all__``) surface must be fully docstringed:
    #: the Monte Carlo sweep machinery and the two operator-facing front-ends.
    _DOCUMENTED_SURFACES = (
        "repro.montecarlo",
        "repro.core.predictor",
        "repro.core.sla",
        "repro.serving.service",
        "repro.serving.reservoir",
        "repro.serving.cache",
    )

    @pytest.mark.parametrize("module_name", _DOCUMENTED_SURFACES)
    def test_all_members_have_docstrings(self, module_name):
        """Every ``__all__`` member — and every public method it exposes —
        carries a non-empty docstring."""
        import inspect

        module = importlib.import_module(module_name)
        missing: list[str] = []
        for name in module.__all__:
            member = getattr(module, name)
            if not inspect.isclass(member) and not callable(member):
                continue  # constants document themselves at the module level
            if not (getattr(member, "__doc__", None) or "").strip():
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(member):
                for attribute, value in vars(member).items():
                    if attribute.startswith("_"):
                        continue
                    unwrapped = value
                    if isinstance(value, (staticmethod, classmethod)):
                        unwrapped = value.__func__
                    if not (inspect.isfunction(unwrapped) or isinstance(value, property)):
                        continue
                    if not (getattr(unwrapped, "__doc__", None) or "").strip():
                        missing.append(f"{module_name}.{name}.{attribute}")
        assert not missing, f"public API members without docstrings: {missing}"


def test_import_loads_neither_scipy_stats_nor_optimize():
    """``import repro`` pays only for what every process uses: the z-score
    comes from ``scipy.special`` and the §5.5 fit imports ``scipy.optimize``
    when it runs."""
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
