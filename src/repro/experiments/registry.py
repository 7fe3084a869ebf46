"""Experiment registry.

Every table and figure in the paper's evaluation has a corresponding
experiment module that produces an :class:`ExperimentResult`.  The registry
maps stable experiment identifiers (used by the CLI, the benchmark harness,
and EXPERIMENTS.md) to those runner functions.

Each runner accepts two keyword arguments:

* ``trials`` — Monte Carlo trials (or workload size) controlling fidelity;
* ``rng`` — a seed or :class:`numpy.random.Generator` for reproducibility.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.tables import format_table
from repro.exceptions import ExperimentError

__all__ = ["ExperimentResult", "register", "get_experiment", "list_experiments", "run_experiment"]


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one experiment: tabular rows plus context."""

    experiment_id: str
    title: str
    #: The paper artifact this reproduces ("Figure 4", "Table 4", ...).
    paper_artifact: str
    rows: Sequence[Mapping[str, object]]
    #: Extra free-form notes (assumptions, trial counts, observed shapes).
    notes: Sequence[str] = field(default_factory=tuple)
    columns: Sequence[str] | None = None

    def to_text(self, precision: int = 3) -> str:
        """Render the result as an aligned text table with a header and notes."""
        parts = [f"== {self.title} ({self.paper_artifact}) =="]
        parts.append(format_table(list(self.rows), columns=self.columns, precision=precision))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


#: Runner signature: (trials, rng) -> ExperimentResult.
ExperimentRunner = Callable[..., ExperimentResult]

_REGISTRY: dict[str, tuple[str, ExperimentRunner]] = {}


def register(experiment_id: str, description: str) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Decorator registering an experiment runner under a stable identifier."""

    def decorator(runner: ExperimentRunner) -> ExperimentRunner:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} is already registered")
        _REGISTRY[experiment_id] = (description, runner)
        return runner

    return decorator


def list_experiments() -> list[tuple[str, str]]:
    """Return ``(experiment_id, description)`` pairs in registration order."""
    _ensure_loaded()
    return [(experiment_id, entry[0]) for experiment_id, entry in _REGISTRY.items()]


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Look up a runner by identifier."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id][1]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from exc


#: Sweep-engine knobs that not every runner supports (closed-form and
#: cluster-based experiments have no Monte Carlo sweep to tune).  These — and
#: only these — are dropped silently when a runner does not accept them, so
#: ``pbs-repro run all --tolerance ... --workers ... --probe-resolution-ms ...``
#: works across heterogeneous runners.
_OPTIONAL_SWEEP_KWARGS: tuple[str, ...] = (
    "chunk_size",
    "tolerance",
    "workers",
    "probe_resolution_ms",
    "draw_batch_size",
    "name",
)


def run_experiment(experiment_id: str, **kwargs: object) -> ExperimentResult:
    """Run one experiment by identifier.

    Unsupported sweep-engine knobs (:data:`_OPTIONAL_SWEEP_KWARGS`) are
    filtered out per runner; every other keyword is passed through verbatim.
    """
    runner = get_experiment(experiment_id)
    parameters = inspect.signature(runner).parameters
    accepts_everything = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    if not accepts_everything:
        kwargs = {
            key: value
            for key, value in kwargs.items()
            if key not in _OPTIONAL_SWEEP_KWARGS or key in parameters
        }
    return runner(**kwargs)


def _ensure_loaded() -> None:
    """Import the experiment modules so their ``@register`` decorators run."""
    # Imported lazily to avoid import cycles (experiment modules import this one).
    from repro.experiments import (  # noqa: F401
        ablations,
        analytic,
        figure4,
        figure5,
        figure6,
        figure7,
        load,
        scenarios,
        section3_examples,
        sla,
        table1_2_3,
        table4,
        validation,
    )
