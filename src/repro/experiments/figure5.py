"""Figure 5: read and write operation latency CDFs for the production fits.

For each production latency environment and each quorum size R (reads) / W
(writes) in {1, 2, 3}, the paper plots the CDF of operation latency.  The
reproduction reports the latency at a fixed set of CDF probabilities so the
series can be compared numerically.
"""

from __future__ import annotations

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.experiments.registry import ExperimentResult, register
from repro.latency.production import lnkd_disk, lnkd_ssd, wan, ymmr
from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

__all__ = ["run_figure5"]

_PERCENTILES = (10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9)


@register("figure5", "Figure 5: operation latency CDFs for production fits, R/W in {1,2,3}")
def run_figure5(
    trials: int = 100_000,
    rng: np.random.Generator | int | None = 0,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> ExperimentResult:
    """Read/write latency percentiles per production environment and quorum size.

    ``workers`` and ``probe_resolution_ms`` are accepted for CLI uniformity
    (``pbs-repro run all``) but have no effect here: the engine runs serially
    whenever samples are retained (``keep_samples``), which this experiment
    needs for exact percentiles, and a pure latency-CDF experiment has no
    t-visibility crossing for an adaptive grid to refine.
    """
    del probe_resolution_ms  # no probe grid in a latency-only sweep
    environments = {
        "LNKD-SSD": lnkd_ssd(),
        "LNKD-DISK": lnkd_disk(),
        "YMMR": ymmr(),
        "WAN": wan(),
    }
    configs = tuple(ReplicaConfig(n=3, r=q, w=q) for q in (1, 2, 3))
    rows = []
    for name, distributions in environments.items():
        # keep_samples: this experiment is about precise latency CDF
        # percentiles, so query the exact per-trial arrays rather than the
        # streaming sketches (adjacent quorum sizes can differ by less than
        # a sketch bin).
        engine = SweepEngine(
            distributions,
            configs,
            chunk_size=chunk_size,
            tolerance=tolerance,
            min_trials=min_trials_for_quantile(max(_PERCENTILES) / 100.0),
            keep_samples=True,
            workers=workers,
        )
        sweep = engine.run(trials, rng)
        for summary in sweep:
            quorum_size = summary.config.r
            read_row: dict[str, object] = {
                "environment": name,
                "operation": "read",
                "quorum_size": quorum_size,
            }
            write_row: dict[str, object] = {
                "environment": name,
                "operation": "write",
                "quorum_size": quorum_size,
            }
            for percentile in _PERCENTILES:
                read_row[f"p{percentile:g}_ms"] = summary.read_latency_percentile(percentile)
                write_row[f"p{percentile:g}_ms"] = summary.write_latency_percentile(percentile)
            rows.append(read_row)
            rows.append(write_row)
    return ExperimentResult(
        experiment_id="figure5",
        title="Operation latency for production fits",
        paper_artifact="Figure 5",
        rows=rows,
        notes=(
            f"{trials} Monte Carlo trials per environment/quorum size; N=3.",
            "Read latency for LNKD-SSD equals LNKD-DISK (shared A=R=S fit); write latency "
            "differs sharply, and WAN latency jumps once the quorum size forces remote replicas.",
        ),
    )
