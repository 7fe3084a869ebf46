"""Figure 4: t-visibility under exponential latency distributions.

The paper sweeps exponentially distributed write latencies ``W`` against fixed
``A = R = S`` (exponential with mean 1 ms) for N=3, R=W=1, and reports the
probability of consistency as a function of ``t``.  The headline shape: when
``W`` is fast relative to ``A=R=S`` consistency is high immediately after
commit; when ``W`` is slow (long write tail) the probability starts low
(~40%) and takes tens of milliseconds to approach 1.

This module also covers the §5.3 fixed-mean / variable-variance observation
using uniform and normal write distributions.
"""

from __future__ import annotations

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.experiments.registry import ExperimentResult, register
from repro.latency.distributions import ExponentialLatency, NormalLatency, UniformLatency
from repro.latency.production import WARSDistributions
from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

__all__ = ["run_figure4", "run_write_variance_sweep", "FIGURE4_RATIOS"]

#: (label, W rate λ) pairs from Figure 4; A=R=S always have λ=1 (mean 1 ms).
FIGURE4_RATIOS: tuple[tuple[str, float], ...] = (
    ("1:4", 4.0),
    ("1:2", 2.0),
    ("1:1", 1.0),
    ("1:0.50", 0.5),
    ("1:0.20", 0.2),
    ("1:0.10", 0.1),
)

_TIMES_MS: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0, 65.0, 100.0)


@register("figure4", "Figure 4: t-visibility with exponential W and A=R=S (N=3, R=W=1)")
def run_figure4(
    trials: int = 100_000,
    rng: np.random.Generator | int | None = 0,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> ExperimentResult:
    """Probability of consistency vs t for each W:ARS rate ratio in Figure 4.

    ``rng`` is forwarded to the sweep engine verbatim, so integer seeds give
    chunk-size-invariant results.  ``probe_resolution_ms`` enables the adaptive
    probe grid around each ratio's 99.9% crossing, sharpening the
    ``t_visibility_99.9_ms`` column without densifying the figure's grid.
    """
    config = ReplicaConfig(n=3, r=1, w=1)
    ars = ExponentialLatency(rate=1.0)
    rows = []
    for label, write_rate in FIGURE4_RATIOS:
        distributions = WARSDistributions.write_specialised(
            write=ExponentialLatency(rate=write_rate), other=ars, name=f"exp-{label}"
        )
        engine = SweepEngine(
            distributions,
            (config,),
            times_ms=_TIMES_MS,
            chunk_size=chunk_size,
            tolerance=tolerance,
            min_trials=min_trials_for_quantile(0.999),
            workers=workers,
            target_probability=0.999,
            probe_resolution_ms=probe_resolution_ms,
        )
        summary = engine.run(trials, rng).results[0]
        row: dict[str, object] = {"w_to_ars_ratio": label, "w_mean_ms": 1.0 / write_rate}
        for t_ms in _TIMES_MS:
            row[f"p@t={t_ms:g}ms"] = summary.consistency_probability(t_ms)
        row["t_visibility_99.9_ms"] = summary.t_visibility(0.999)
        rows.append(row)
    return ExperimentResult(
        experiment_id="figure4",
        title="t-visibility under exponential latency distributions",
        paper_artifact="Figure 4 / Section 5.3",
        rows=rows,
        notes=(
            f"{trials} Monte Carlo trials per ratio; A=R=S exponential with mean 1 ms.",
            "Slower/longer-tailed writes (ratios 1:0.20, 1:0.10) start near 40% consistency "
            "and need tens of ms to converge, matching the paper.",
        ),
    )


@register(
    "section5.3-variance",
    "§5.3: fixed-mean, variable-variance write distributions (variance matters more than mean)",
)
def run_write_variance_sweep(
    trials: int = 100_000,
    rng: np.random.Generator | int | None = 0,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> ExperimentResult:
    """Hold the mean of W fixed and vary its variance using uniform and normal shapes."""
    config = ReplicaConfig(n=3, r=1, w=1)
    ars = ExponentialLatency(rate=1.0)
    mean_ms = 5.0
    write_distributions = [
        ("constant-ish uniform", UniformLatency(low=4.5, high=5.5)),
        ("wide uniform", UniformLatency(low=0.0, high=10.0)),
        ("normal sd=0.5", NormalLatency(mu=mean_ms, sigma=0.5)),
        ("normal sd=2.5", NormalLatency(mu=mean_ms, sigma=2.5)),
        ("normal sd=5", NormalLatency(mu=mean_ms, sigma=5.0)),
        ("exponential mean=5", ExponentialLatency.from_mean(mean_ms)),
    ]
    rows = []
    for label, write in write_distributions:
        distributions = WARSDistributions.write_specialised(write=write, other=ars)
        engine = SweepEngine(
            distributions,
            (config,),
            # The sweep quotes a 99.9% crossing that can sit well past 5 ms;
            # give the adaptive grid headroom to bracket it.
            times_ms=(0.0, 5.0, 50.0) if probe_resolution_ms is not None else (0.0, 5.0),
            chunk_size=chunk_size,
            tolerance=tolerance,
            min_trials=min_trials_for_quantile(0.999),
            workers=workers,
            target_probability=0.999,
            probe_resolution_ms=probe_resolution_ms,
        )
        summary = engine.run(trials, rng).results[0]
        rows.append(
            {
                "write_distribution": label,
                "w_mean_ms": write.mean(),
                "w_variance": write.variance(),
                "p_consistent_at_commit": summary.probability_never_stale(),
                "p_consistent_at_5ms": summary.consistency_probability(5.0),
                "t_visibility_99.9_ms": summary.t_visibility(0.999),
            }
        )
    return ExperimentResult(
        experiment_id="section5.3-variance",
        title="Write-latency variance vs staleness (fixed mean)",
        paper_artifact="Section 5.3 (discussion around Figure 4)",
        rows=rows,
        notes=(
            "With the write mean fixed at 5 ms, higher write variance lowers the probability "
            "of consistency and lengthens t-visibility, as observed in the paper.",
        ),
    )
