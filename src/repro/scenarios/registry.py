"""The hostile-conditions scenario registry.

The paper validates the WARS model only under benign, fixed conditions: one
key, i.i.d. replicas, no partitions, no churn, no anti-entropy (§5.2).  A
:class:`Scenario` names one *departure* from those assumptions — a cluster
configuration mutator plus (optionally) a workload mutator — so the
divergence harness (:mod:`repro.scenarios.divergence`) can run the simulator
under the hostile condition while the analytic and Monte Carlo predictors
keep assuming the benign WARS environment, and report how far the model's
predictions degrade.

Scenarios are registered by name in a module-level registry (mirroring
:mod:`repro.experiments.registry`), which is what gives every scenario a CLI
path (``pbs-repro run scenario --name <name>``), a pinned reduced-scale
conformance test, and a divergence trajectory line in ``BENCH_sweep.json``.

Sharded runs resolve scenarios *by name* inside worker processes, so a
scenario that should run under ``workers > 1`` must be registered at import
time of :mod:`repro.scenarios` (the built-in definitions are; ad-hoc
scenarios registered in a script work serially and under fork pools, but a
spawn pool — used where the platform has no fork — re-imports and would not
see them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import ScenarioError
from repro.latency.production import WARSDistributions
from repro.workloads.operations import Operation, validation_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports nothing here)
    from repro.cluster.store import DynamoCluster

__all__ = [
    "Scenario",
    "ScenarioContext",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "DEFAULT_READ_OFFSETS_MS",
    "SCENARIO_KEY",
]

#: Read offsets (ms after each write) used by scenario workloads unless a
#: scenario overrides them — the §5.2 validation offsets.
DEFAULT_READ_OFFSETS_MS: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

#: The key overwritten by single-key scenario workloads.
SCENARIO_KEY = "scenario-key"


@dataclass(frozen=True)
class ScenarioContext:
    """Per-block runtime facts handed to a scenario's hooks.

    The divergence harness runs each scenario as independent *blocks* of
    writes (one simulated cluster per block, merged in block order — the
    validation experiment's sharding discipline), so hostile conditions are
    expressed relative to the block: ``horizon_ms`` is the block's workload
    duration and hooks that schedule events (partitions, crashes, churn)
    should place them at fractions of it.  ``rng`` is a scenario-dedicated
    stream spawned from the block seed — consuming it never perturbs the
    cluster's or the workload's draws.
    """

    #: Writes issued in this block.
    writes: int
    #: Milliseconds between consecutive writes.
    write_interval_ms: float
    #: Read offsets after each write (ms).
    read_offsets_ms: tuple[float, ...]
    #: Duration of the block's workload (``writes * write_interval_ms``).
    horizon_ms: float
    #: Scenario-dedicated random stream (block-seeded, deterministic).
    rng: np.random.Generator


#: Builds the latency model the *cluster* actually experiences.  A factory
#: (rather than a stored instance) so per-block networks never share
#: distribution state and frozen scenario objects stay picklable by name.
DistributionFactory = Callable[[], WARSDistributions]

#: Mutates one freshly built cluster before its block runs (install
#: partitions, schedule crashes or churn, enable anti-entropy, ...).
SetupHook = Callable[["DynamoCluster", ScenarioContext], None]

#: Builds the block's operation stream; ``None`` means the §5.2 single-key
#: overwrite workload.
WorkloadFactory = Callable[[ScenarioContext], Sequence[Operation]]


@dataclass(frozen=True)
class Scenario:
    """One named departure from the paper's benign validation conditions.

    Attributes
    ----------
    name / description:
        Stable identifier (CLI, tests, BENCH lines) and a one-line summary.
    base_distributions:
        Factory for the WARS distributions the *predictors* assume.  The
        measured-vs-predicted comparison is only meaningful because this is
        held fixed while the cluster deviates.
    cluster_distributions:
        Factory for the latency model the cluster actually experiences
        (defaults to ``base_distributions`` — the deviation then comes from
        ``cluster_kwargs``/``setup``/``workload`` instead).
    cluster_kwargs:
        Extra :class:`~repro.cluster.store.DynamoCluster` keyword arguments
        (``loss_probability``, ``read_repair``, ``node_count``, ...).
    setup:
        Optional per-block mutator run after cluster construction and before
        the workload (schedule partitions, crashes, ring churn, enable
        anti-entropy).
    workload:
        Optional workload mutator; ``None`` uses the single-key §5.2
        overwrite stream.
    write_interval_ms / read_offsets_ms:
        Workload cadence; scenarios that stress write overlap shrink the
        interval.
    hostile:
        ``False`` only for the benign baseline, which must reproduce the
        PR 5 validation cell.
    """

    name: str
    description: str
    base_distributions: DistributionFactory
    cluster_distributions: DistributionFactory | None = None
    cluster_kwargs: Mapping[str, object] = field(default_factory=dict)
    setup: SetupHook | None = None
    workload: WorkloadFactory | None = None
    write_interval_ms: float = 100.0
    read_offsets_ms: tuple[float, ...] = DEFAULT_READ_OFFSETS_MS
    hostile: bool = True

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ScenarioError(
                f"scenario names must be non-empty and whitespace-free, got {self.name!r}"
            )
        if self.write_interval_ms <= 0:
            raise ScenarioError(
                f"write interval must be positive, got {self.write_interval_ms}"
            )
        if not self.read_offsets_ms or min(self.read_offsets_ms) < 0:
            raise ScenarioError("read offsets must be non-empty and non-negative")

    def distributions_for_cluster(self) -> WARSDistributions:
        """The latency model driving the simulated cluster's messages."""
        factory = self.cluster_distributions or self.base_distributions
        return factory()

    def build_operations(self, context: ScenarioContext) -> list[Operation]:
        """The block's operation stream (scenario-specific or the §5.2 default)."""
        if self.workload is not None:
            return list(self.workload(context))
        return validation_workload(
            key=SCENARIO_KEY,
            writes=context.writes,
            write_interval_ms=context.write_interval_ms,
            read_offsets_ms=context.read_offsets_ms,
        )


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; names must be unique."""
    if scenario.name in _REGISTRY:
        raise ScenarioError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from exc


def list_scenarios() -> list[Scenario]:
    """Every registered scenario, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def scenario_names() -> list[str]:
    """Registered scenario names, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY)


def _ensure_loaded() -> None:
    """Import the built-in definitions so their registrations run."""
    # Imported lazily to avoid a cycle (definitions import this module).
    from repro.scenarios import definitions  # noqa: F401
