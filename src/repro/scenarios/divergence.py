"""Model-vs-simulation divergence under hostile conditions.

:func:`run_scenario` is the measurement core of the scenario matrix: it runs
the cluster simulator under a scenario's mutated conditions, runs the Monte
Carlo and analytic predictors under the scenario's *unmutated* base WARS
assumptions, and reports how far the predictions drift — per-probe |Δp| on
the consistency curve, staleness-curve RMSE, t-visibility shift, and latency
percentile N-RMSE.  For the benign ``baseline`` scenario the divergence is
the paper's §5.2 validation error (RMSE ≤ 1%); for hostile scenarios it
quantifies exactly what each violated assumption costs the model.

Sharding
--------
Scenario runs always use the blocked discipline of
:mod:`repro.analysis.validation`: writes split into independent blocks of
:data:`SCENARIO_BLOCK_WRITES`, one cluster per block, block seeds spawned
from a single root :class:`numpy.random.SeedSequence`, measurements merged
in block order.  The block structure depends only on ``writes``, so results
are **bit-for-bit identical for any worker count** — the property the
reduced-scale conformance tests pin.  Block specs ship only the scenario
*name* across process boundaries; workers re-resolve it from the registry.

Hostile events (partitions, crashes, churn) are scheduled per block at
fractions of the block horizon, so a sharded run experiences the hostile
condition in every block rather than once per run — which is also what keeps
serial and sharded runs identical.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.staleness import (
    StalenessObservation,
    consistency_by_time,
    measured_t_visibility,
    observe_staleness,
    operation_latencies,
)
from repro.analysis.statistics import rmse
from repro.analysis.validation import _block_sizes, _root_entropy
from repro.analytic.predictor import AnalyticPredictor
from repro.cluster.client import WorkloadRunner
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import PBSError, ScenarioError
from repro.latency.percentiles import normalized_rmse
from repro.scenarios.registry import Scenario, ScenarioContext, get_scenario

__all__ = [
    "ScenarioDivergence",
    "run_scenario",
    "run_scenario_matrix",
    "validate_divergence",
    "SCENARIO_BLOCK_WRITES",
    "DEFAULT_T_VISIBILITY_TARGETS",
]

#: Writes per independent simulation block in scenario runs.  Smaller than
#: the validation experiment's 5k blocks so hostile events (scheduled at
#: fractions of the block horizon) recur often enough to dominate mixing
#: time, and so 2k-write conformance tests still exercise multiple blocks.
SCENARIO_BLOCK_WRITES = 1_000

#: Consistency targets whose t-visibility shift is reported.
DEFAULT_T_VISIBILITY_TARGETS: tuple[float, ...] = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class ScenarioDivergence:
    """Structured divergence report for one scenario run.

    ``montecarlo_*`` fields compare the simulator against the WARS Monte
    Carlo predictor; ``analytic_*`` fields compare against the closed-form
    predictor and are ``None`` when the scenario's base distributions fall
    outside its i.i.d. domain.  ``t_visibility_shift_ms`` maps each target
    probability to ``measured − predicted`` t-visibility; a shift is ``None``
    (serialised ``null``) when the measured curve never reaches the target —
    hostile scenarios can plateau below it.
    """

    scenario: str
    description: str
    hostile: bool
    config: ReplicaConfig
    writes: int
    observations: int
    dropped_messages: int
    bin_centers_ms: tuple[float, ...]
    measured_consistency: tuple[float, ...]
    montecarlo_consistency: tuple[float, ...]
    analytic_consistency: tuple[float, ...] | None
    consistency_rmse: float
    max_abs_delta_p: float
    mean_abs_delta_p: float
    analytic_rmse: float | None
    analytic_max_abs_delta_p: float | None
    t_visibility_shift_ms: Mapping[float, float | None]
    read_latency_nrmse: float
    write_latency_nrmse: float

    def to_dict(self) -> dict:
        """JSON-safe representation (non-finite shifts become ``null``)."""
        return {
            "scenario": self.scenario,
            "description": self.description,
            "hostile": self.hostile,
            "config": {"n": self.config.n, "r": self.config.r, "w": self.config.w},
            "writes": self.writes,
            "observations": self.observations,
            "dropped_messages": self.dropped_messages,
            "bin_centers_ms": list(self.bin_centers_ms),
            "measured_consistency": list(self.measured_consistency),
            "montecarlo_consistency": list(self.montecarlo_consistency),
            "analytic_consistency": (
                None if self.analytic_consistency is None else list(self.analytic_consistency)
            ),
            "consistency_rmse": self.consistency_rmse,
            "max_abs_delta_p": self.max_abs_delta_p,
            "mean_abs_delta_p": self.mean_abs_delta_p,
            "analytic_rmse": self.analytic_rmse,
            "analytic_max_abs_delta_p": self.analytic_max_abs_delta_p,
            "t_visibility_shift_ms": {
                str(target): (shift if shift is not None and math.isfinite(shift) else None)
                for target, shift in self.t_visibility_shift_ms.items()
            },
            "read_latency_nrmse": self.read_latency_nrmse,
            "write_latency_nrmse": self.write_latency_nrmse,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable divergence summary."""
        lines = [
            f"scenario: {self.scenario} ({'hostile' if self.hostile else 'benign'})",
            f"configuration: {self.config.label()}",
            f"staleness observations: {self.observations}",
            f"dropped messages: {self.dropped_messages}",
            f"consistency RMSE vs Monte Carlo: {self.consistency_rmse * 100:.2f}%",
            f"max |delta p|: {self.max_abs_delta_p * 100:.2f}%",
        ]
        if self.analytic_rmse is not None:
            lines.append(f"consistency RMSE vs analytic: {self.analytic_rmse * 100:.2f}%")
        for target, shift in self.t_visibility_shift_ms.items():
            rendered = (
                "unreached" if shift is None or not math.isfinite(shift) else f"{shift:+.2f} ms"
            )
            lines.append(f"t-visibility shift at p={target}: {rendered}")
        lines.append(f"read latency N-RMSE: {self.read_latency_nrmse * 100:.2f}%")
        lines.append(f"write latency N-RMSE: {self.write_latency_nrmse * 100:.2f}%")
        return lines


# ---------------------------------------------------------------------------
# Blocked measurement.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ScenarioBlockSpec:
    """Picklable description of one scenario simulation block.

    Carries the scenario *name*, not the scenario: hooks are arbitrary
    callables, so workers re-resolve the registered object instead.
    """

    scenario_name: str
    config: ReplicaConfig
    writes: int
    seed: np.random.SeedSequence
    draw_batch_size: int


def _run_scenario_block(
    spec: _ScenarioBlockSpec,
) -> tuple[list[StalenessObservation], np.ndarray, np.ndarray, int]:
    """Run one block's mutated cluster and extract its measurements."""
    scenario = get_scenario(spec.scenario_name)
    cluster_seed, context_seed = spec.seed.spawn(2)
    cluster = DynamoCluster(
        config=spec.config,
        distributions=scenario.distributions_for_cluster(),
        rng=np.random.default_rng(cluster_seed),
        draw_batch_size=spec.draw_batch_size,
        **scenario.cluster_kwargs,
    )
    context = ScenarioContext(
        writes=spec.writes,
        write_interval_ms=scenario.write_interval_ms,
        read_offsets_ms=scenario.read_offsets_ms,
        horizon_ms=spec.writes * scenario.write_interval_ms,
        rng=np.random.default_rng(context_seed),
    )
    operations = scenario.build_operations(context)
    if scenario.setup is not None:
        scenario.setup(cluster, context)
    WorkloadRunner(cluster).run(operations)
    observations = observe_staleness(cluster.trace_log)
    measured_reads, measured_writes = operation_latencies(cluster.trace_log)
    return observations, measured_reads, measured_writes, cluster.network.dropped_messages


def _measure_scenario(
    scenario: Scenario,
    config: ReplicaConfig,
    writes: int,
    root: np.random.SeedSequence,
    block_writes: int,
    draw_batch_size: int,
    workers: int,
) -> tuple[list[StalenessObservation], np.ndarray, np.ndarray, int]:
    """Run the measured side as independent blocks, serially or on a pool."""
    sizes = _block_sizes(writes, block_writes)
    seeds = root.spawn(len(sizes))
    specs = [
        _ScenarioBlockSpec(
            scenario_name=scenario.name,
            config=config,
            writes=size,
            seed=seed,
            draw_batch_size=draw_batch_size,
        )
        for size, seed in zip(sizes, seeds)
    ]
    if workers > 1 and len(specs) > 1:
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(start_method).Pool(
            processes=min(workers, len(specs))
        ) as pool:
            results = pool.map(_run_scenario_block, specs, chunksize=1)
    else:
        results = [_run_scenario_block(spec) for spec in specs]

    observations: list[StalenessObservation] = []
    read_blocks: list[np.ndarray] = []
    write_blocks: list[np.ndarray] = []
    dropped = 0
    for block_observations, block_reads, block_writes_lat, block_dropped in results:
        observations.extend(block_observations)
        read_blocks.append(block_reads)
        write_blocks.append(block_writes_lat)
        dropped += block_dropped
    return observations, np.concatenate(read_blocks), np.concatenate(write_blocks), dropped


# ---------------------------------------------------------------------------
# The divergence harness.
# ---------------------------------------------------------------------------


def run_scenario(
    name: str,
    writes: int = 2_000,
    config: ReplicaConfig | None = None,
    prediction_trials: int = 100_000,
    latency_percentiles: Sequence[float] = tuple(float(p) for p in range(1, 100)),
    bin_width_ms: float = 5.0,
    t_visibility_targets: Sequence[float] = DEFAULT_T_VISIBILITY_TARGETS,
    rng: np.random.Generator | int | None = 0,
    workers: int | None = None,
    block_writes: int | None = None,
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
) -> ScenarioDivergence:
    """Run one registered scenario and report model-vs-simulation divergence.

    The simulator runs under the scenario's mutated conditions; both
    predictors run under the scenario's unmutated ``base_distributions``.
    Unlike :func:`~repro.analysis.validation.run_validation`, the blocked
    path is *always* used (``workers=None`` simply runs the blocks serially),
    so output is bit-for-bit identical for any worker count by construction.

    Args:
        name: A registered scenario name (see
            :func:`repro.scenarios.registry.scenario_names`).
        writes: Total writes across all blocks (the paper's §5.2 scale is
            50,000; conformance tests use 2,000).
        config: Replication configuration; defaults to the paper's
            ``N=3, R=1, W=1`` validation cell.
        workers: Block-level process parallelism (``None`` or ``1`` = serial).
        block_writes: Override :data:`SCENARIO_BLOCK_WRITES`.
    """
    scenario = get_scenario(name)
    if config is None:
        config = ReplicaConfig(n=3, r=1, w=1)
    if writes < 10:
        raise ScenarioError(f"at least 10 writes are required, got {writes}")
    if workers is not None and workers < 1:
        raise ScenarioError(f"workers must be >= 1, got {workers}")
    if block_writes is not None and block_writes < 10:
        raise ScenarioError(f"block_writes must be >= 10, got {block_writes}")

    root = np.random.SeedSequence(_root_entropy(rng))
    # Dedicated predictor child before the block seeds, mirroring
    # run_validation, so measured and predicted streams are independent.
    predictor_seed, blocks_root = root.spawn(2)
    observations, measured_reads, measured_writes, dropped = _measure_scenario(
        scenario=scenario,
        config=config,
        writes=writes,
        root=blocks_root,
        block_writes=block_writes or SCENARIO_BLOCK_WRITES,
        draw_batch_size=draw_batch_size,
        workers=workers or 1,
    )
    if not observations:
        raise ScenarioError(
            f"scenario {name!r} produced no staleness observations"
        )

    # --- Predicted side: unmutated WARS assumptions. ---
    base = scenario.base_distributions()
    predicted = WARSModel(distributions=base, config=config).sample(
        prediction_trials, np.random.default_rng(predictor_seed)
    )
    try:
        analytic = AnalyticPredictor(distributions=base).result(config)
    except PBSError:
        # Per-replica (non-i.i.d.) base distributions stay Monte Carlo only.
        analytic = None

    # --- Consistency curves at the populated measurement bins. ---
    max_t = max(obs.t_since_commit_ms for obs in observations)
    bin_edges = np.arange(0.0, max_t + bin_width_ms, bin_width_ms)
    if bin_edges.size < 2:
        bin_edges = np.array([0.0, max(max_t, bin_width_ms)])
    binned = consistency_by_time(observations, bin_edges)
    centers: list[float] = []
    measured_curve: list[float] = []
    montecarlo_curve: list[float] = []
    analytic_curve: list[float] = []
    for center, fraction, count in zip(binned.bin_centers, binned.fractions, binned.counts):
        if count == 0 or not np.isfinite(fraction):
            continue
        probe_t = max(center, 0.0)
        centers.append(center)
        measured_curve.append(fraction)
        montecarlo_curve.append(predicted.consistency_probability(probe_t))
        if analytic is not None:
            analytic_curve.append(analytic.consistency_probability(probe_t))
    if not centers:
        raise ScenarioError("no populated time bins; widen the bins or add reads")

    deltas = np.abs(np.asarray(montecarlo_curve) - np.asarray(measured_curve))
    if analytic is not None:
        analytic_deltas = np.abs(np.asarray(analytic_curve) - np.asarray(measured_curve))
        analytic_rmse = rmse(analytic_curve, measured_curve)
        analytic_max_delta = float(np.max(analytic_deltas))
    else:
        analytic_rmse = None
        analytic_max_delta = None

    # --- t-visibility shift (measured minus predicted) per target. ---
    shifts: dict[float, float | None] = {}
    for target in t_visibility_targets:
        measured_t = measured_t_visibility(observations, target)
        predicted_t = predicted.t_visibility(target)
        if math.isfinite(measured_t) and math.isfinite(predicted_t):
            shifts[float(target)] = float(measured_t - predicted_t)
        else:
            shifts[float(target)] = None

    # --- Operation latency percentile divergence. ---
    percentile_list = list(latency_percentiles)
    predicted_reads = predicted.read_latency_percentiles(percentile_list)
    predicted_writes = predicted.write_latency_percentiles(percentile_list)
    measured_read_pct = list(np.percentile(measured_reads, percentile_list))
    measured_write_pct = list(np.percentile(measured_writes, percentile_list))

    return ScenarioDivergence(
        scenario=scenario.name,
        description=scenario.description,
        hostile=scenario.hostile,
        config=config,
        writes=writes,
        observations=len(observations),
        dropped_messages=dropped,
        bin_centers_ms=tuple(centers),
        measured_consistency=tuple(measured_curve),
        montecarlo_consistency=tuple(montecarlo_curve),
        analytic_consistency=tuple(analytic_curve) if analytic is not None else None,
        consistency_rmse=rmse(montecarlo_curve, measured_curve),
        max_abs_delta_p=float(np.max(deltas)),
        mean_abs_delta_p=float(np.mean(deltas)),
        analytic_rmse=analytic_rmse,
        analytic_max_abs_delta_p=analytic_max_delta,
        t_visibility_shift_ms=shifts,
        read_latency_nrmse=normalized_rmse(predicted_reads, measured_read_pct),
        write_latency_nrmse=normalized_rmse(predicted_writes, measured_write_pct),
    )


def run_scenario_matrix(
    names: Sequence[str] | None = None,
    **kwargs,
) -> dict[str, ScenarioDivergence]:
    """Run several scenarios (default: all registered) with shared settings.

    Keyword arguments are forwarded to :func:`run_scenario`.  With an integer
    ``rng`` every scenario reuses the same root seed (each is reproducible in
    isolation); with a shared generator each scenario consumes one draw, so
    the matrix as a whole is reproducible instead.
    """
    from repro.scenarios.registry import scenario_names

    selected = list(names) if names is not None else scenario_names()
    return {name: run_scenario(name, **kwargs) for name in selected}


# ---------------------------------------------------------------------------
# Report schema validation.
# ---------------------------------------------------------------------------

_REQUIRED_SCALARS = (
    ("consistency_rmse", float),
    ("max_abs_delta_p", float),
    ("mean_abs_delta_p", float),
    ("read_latency_nrmse", float),
    ("write_latency_nrmse", float),
)


def validate_divergence(payload: Mapping) -> None:
    """Check a :meth:`ScenarioDivergence.to_dict` payload against the schema.

    Raises :class:`~repro.exceptions.ScenarioError` on any violation:
    missing keys, non-finite divergence metrics, probability values outside
    [0, 1], or mismatched curve lengths.  t-visibility shifts may be ``null``
    (target unreached) but must be finite floats otherwise.
    """
    required = {
        "scenario",
        "description",
        "hostile",
        "config",
        "writes",
        "observations",
        "dropped_messages",
        "bin_centers_ms",
        "measured_consistency",
        "montecarlo_consistency",
        "analytic_consistency",
        "consistency_rmse",
        "max_abs_delta_p",
        "mean_abs_delta_p",
        "analytic_rmse",
        "analytic_max_abs_delta_p",
        "t_visibility_shift_ms",
        "read_latency_nrmse",
        "write_latency_nrmse",
    }
    missing = required - set(payload)
    if missing:
        raise ScenarioError(f"divergence payload missing keys: {sorted(missing)}")
    for key, kind in _REQUIRED_SCALARS:
        value = payload[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{key} must be numeric, got {value!r}")
        if not math.isfinite(float(value)):
            raise ScenarioError(f"{key} must be finite, got {value!r}")
    for key in ("writes", "observations", "dropped_messages"):
        value = payload[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ScenarioError(f"{key} must be a non-negative integer, got {value!r}")
    config = payload["config"]
    if not isinstance(config, Mapping) or set(config) != {"n", "r", "w"}:
        raise ScenarioError(f"config must map exactly n/r/w, got {config!r}")
    centers = payload["bin_centers_ms"]
    curves = [("measured_consistency", True), ("montecarlo_consistency", True)]
    if payload["analytic_consistency"] is not None:
        curves.append(("analytic_consistency", True))
    for key, _ in curves:
        curve = payload[key]
        if len(curve) != len(centers):
            raise ScenarioError(
                f"{key} length {len(curve)} != bin_centers_ms length {len(centers)}"
            )
        for value in curve:
            if not 0.0 <= float(value) <= 1.0:
                raise ScenarioError(f"{key} contains out-of-range probability {value!r}")
    shifts = payload["t_visibility_shift_ms"]
    if not isinstance(shifts, Mapping) or not shifts:
        raise ScenarioError("t_visibility_shift_ms must be a non-empty mapping")
    for target, shift in shifts.items():
        if shift is None:
            continue
        if not isinstance(shift, (int, float)) or not math.isfinite(float(shift)):
            raise ScenarioError(
                f"t-visibility shift at {target!r} must be finite or null, got {shift!r}"
            )
