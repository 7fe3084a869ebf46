"""Model-vs-simulation divergence under hostile conditions.

:func:`run_scenario` is the measurement core of the scenario matrix: it runs
the cluster simulator under a scenario's mutated conditions, runs the Monte
Carlo and analytic predictors under the scenario's *unmutated* base WARS
assumptions, and reports how far the predictions drift — per-probe |Δp| on
the consistency curve, staleness-curve RMSE, t-visibility shift, and latency
percentile N-RMSE.  For the benign ``baseline`` scenario the divergence is
the paper's §5.2 validation error (RMSE ≤ 1%); for hostile scenarios it
quantifies exactly what each violated assumption costs the model.

Blocks
------
Scenario runs go through :func:`repro.analysis.blocks.run_blocks`: writes
split into independent blocks of :data:`SCENARIO_BLOCK_WRITES`, one cluster
per block, block seeds spawned from a single root
:class:`numpy.random.SeedSequence`, measurements joined in block order.  The
block structure depends only on ``writes``, so results are **bit-for-bit
identical for any worker count** — the property the reduced-scale
conformance tests pin.  :func:`scenario_block` takes only the
scenario *name* across process boundaries; workers re-resolve it from the
registry.

Hostile events (partitions, crashes, churn) are scheduled per block at
fractions of the block horizon, so a sharded run experiences the hostile
condition in every block rather than once per run — which is also what keeps
serial and sharded runs identical.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.blocks import Block, populated_bins, run_blocks
from repro.analysis.staleness import (
    measured_t_visibility,
    observe_staleness,
    operation_latencies,
)
from repro.analysis.statistics import rmse
from repro.analytic.predictor import AnalyticPredictor
from repro.cluster.client import WorkloadRunner
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import PBSError, ScenarioError
from repro.latency.percentiles import normalized_rmse
from repro.scenarios.registry import ScenarioContext, get_scenario

__all__ = [
    "ScenarioDivergence",
    "run_scenario",
    "run_scenario_matrix",
    "scenario_block",
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
# One block of a scenario run.
# ---------------------------------------------------------------------------


def scenario_block(
    size: int,
    seed: np.random.SeedSequence,
    scenario_name: str,
    config: ReplicaConfig,
    draw_batch_size: int,
    extract: Callable = operator.attrgetter("network.dropped_messages"),
) -> Block:
    """Run one block of a registered scenario and extract its measurements.

    The block seed's two children seed the mutated cluster and the
    scenario's own stream, in that order.  ``extract(cluster)`` is the
    block's :attr:`~repro.analysis.blocks.Block.extra`; by default it counts
    the dropped messages.  The scenario travels by *name*: hooks are
    arbitrary callables, so pool workers re-resolve the registered object.
    """
    scenario = get_scenario(scenario_name)
    cluster_seed, context_seed = seed.spawn(2)
    cluster = DynamoCluster(
        config=config,
        distributions=scenario.distributions_for_cluster(),
        rng=np.random.default_rng(cluster_seed),
        draw_batch_size=draw_batch_size,
        **scenario.cluster_kwargs,
    )
    context = ScenarioContext(
        writes=size,
        write_interval_ms=scenario.write_interval_ms,
        read_offsets_ms=scenario.read_offsets_ms,
        horizon_ms=size * scenario.write_interval_ms,
        rng=np.random.default_rng(context_seed),
    )
    operations = scenario.build_operations(context)
    if scenario.setup is not None:
        scenario.setup(cluster, context)
    WorkloadRunner(cluster).run(operations)
    frame = observe_staleness(cluster.trace_log)
    measured_reads, measured_writes = operation_latencies(cluster.trace_log)
    return Block(frame, measured_reads, measured_writes, extract(cluster))


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
    workers: int = 1,
    block_writes: int = SCENARIO_BLOCK_WRITES,
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
) -> ScenarioDivergence:
    """Run one registered scenario and report model-vs-simulation divergence.

    The simulator runs under the scenario's mutated conditions; both
    predictors run under the scenario's unmutated ``base_distributions``.
    Output is bit-for-bit identical for any worker count.

    Args:
        name: A registered scenario name (see
            :func:`repro.scenarios.registry.scenario_names`).
        writes: Total writes across all blocks (the paper's §5.2 scale is
            50,000; conformance tests use 2,000).
        config: Replication configuration; defaults to the paper's
            ``N=3, R=1, W=1`` validation cell.
        workers: Block-level process parallelism (``1`` = serial).
        block_writes: Writes per independent block (at least 10).
    """
    scenario = get_scenario(name)
    if config is None:
        config = ReplicaConfig(n=3, r=1, w=1)
    run = run_blocks(
        functools.partial(
            scenario_block,
            scenario_name=scenario.name,
            config=config,
            draw_batch_size=draw_batch_size,
        ),
        writes=writes,
        block_writes=block_writes,
        rng=rng,
        workers=workers,
        error=ScenarioError,
    )
    if not len(run.frame):
        raise ScenarioError(
            f"scenario {name!r} produced no staleness observations"
        )

    # --- Predicted side: unmutated WARS assumptions. ---
    base = scenario.base_distributions()
    predicted = WARSModel(distributions=base, config=config).sample(
        prediction_trials, np.random.default_rng(run.predictor_seed)
    )
    try:
        analytic = AnalyticPredictor(distributions=base).result(config)
    except PBSError:
        # Per-replica (non-i.i.d.) base distributions stay Monte Carlo only.
        analytic = None

    # --- Consistency curves at the populated measurement bins. ---
    centers, measured_curve = populated_bins(run.frame, bin_width_ms, ScenarioError)
    probe_ts = [max(center, 0.0) for center in centers]
    montecarlo_curve = [predicted.consistency_probability(t) for t in probe_ts]
    analytic_curve = (
        None if analytic is None else [analytic.consistency_probability(t) for t in probe_ts]
    )

    deltas = np.abs(np.asarray(montecarlo_curve) - np.asarray(measured_curve))
    if analytic_curve is not None:
        analytic_deltas = np.abs(np.asarray(analytic_curve) - np.asarray(measured_curve))
        analytic_rmse = rmse(analytic_curve, measured_curve)
        analytic_max_delta = float(np.max(analytic_deltas))
    else:
        analytic_rmse = None
        analytic_max_delta = None

    # --- t-visibility shift (measured minus predicted) per target. ---
    shifts: dict[float, float | None] = {}
    for target in t_visibility_targets:
        measured_t = measured_t_visibility(run.frame, target)
        predicted_t = predicted.t_visibility(target)
        if math.isfinite(measured_t) and math.isfinite(predicted_t):
            shifts[float(target)] = float(measured_t - predicted_t)
        else:
            shifts[float(target)] = None

    # --- Operation latency percentile divergence. ---
    percentile_list = list(latency_percentiles)
    predicted_reads = predicted.read_latency_percentiles(percentile_list)
    predicted_writes = predicted.write_latency_percentiles(percentile_list)
    measured_read_pct = list(np.percentile(run.read_latencies, percentile_list))
    measured_write_pct = list(np.percentile(run.write_latencies, percentile_list))

    return ScenarioDivergence(
        scenario=scenario.name,
        description=scenario.description,
        hostile=scenario.hostile,
        config=config,
        writes=writes,
        observations=len(run.frame),
        dropped_messages=sum(run.extras),
        bin_centers_ms=tuple(centers),
        measured_consistency=tuple(measured_curve),
        montecarlo_consistency=tuple(montecarlo_curve),
        analytic_consistency=None if analytic_curve is None else tuple(analytic_curve),
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
