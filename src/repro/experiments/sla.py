"""§6 SLA-driven replication configuration.

Demonstrates the paper's "Latency/Staleness SLAs" discussion: exhaustively
evaluate every (N, R, W) configuration against a latency + staleness +
durability target and report which configuration an operator should deploy.
"""

from __future__ import annotations

import numpy as np

from repro.core.sla import SLAOptimizer, SLATarget
from repro.experiments.registry import ExperimentResult, register
from repro.latency.production import lnkd_disk, ymmr

__all__ = ["run_sla_search"]


@register("sla", "§6: SLA-driven (N, R, W) configuration search")
def run_sla_search(
    trials: int = 30_000,
    rng: np.random.Generator | int | None = 0,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> ExperimentResult:
    """Search (N, R, W) under two representative SLAs for LNKD-DISK and YMMR.

    Each scenario's candidate set is evaluated against shared sample batches
    (one per replication factor) via the sweep engine; ``workers`` shards
    those sweeps across processes without changing which configuration wins.
    ``probe_resolution_ms`` resolves each candidate's t-visibility crossing —
    the number every feasibility verdict hinges on — to that resolution.
    """
    scenarios = [
        (
            "LNKD-DISK: p99.9 latency <= 25 ms, 99.9% consistent within 50 ms, W >= 1",
            lnkd_disk(),
            SLATarget(
                read_latency_ms=25.0,
                write_latency_ms=25.0,
                t_visibility_ms=50.0,
                min_write_quorum=1,
                min_replication=3,
            ),
        ),
        (
            "YMMR: p99.9 latency <= 60 ms, 99.9% consistent within 250 ms, W >= 1",
            ymmr(),
            SLATarget(
                read_latency_ms=60.0,
                write_latency_ms=60.0,
                t_visibility_ms=250.0,
                min_write_quorum=1,
                min_replication=3,
            ),
        ),
        (
            "YMMR durability-first: W >= 2, 99.9% consistent within 100 ms",
            ymmr(),
            SLATarget(
                t_visibility_ms=100.0,
                min_write_quorum=2,
                min_replication=3,
            ),
        ),
    ]
    rows = []
    for label, distributions, target in scenarios:
        optimizer = SLAOptimizer(
            distributions=distributions,
            replication_factors=(3,),
            trials=trials,
            rng=rng,
            chunk_size=chunk_size,
            tolerance=tolerance,
            workers=workers,
            probe_resolution_ms=probe_resolution_ms,
        )
        evaluations = optimizer.evaluate_all(target)
        best = optimizer.best(target)
        feasible = sum(1 for evaluation in evaluations if evaluation.meets_target)
        rows.append(
            {
                "scenario": label,
                "configs_evaluated": len(evaluations),
                "configs_feasible": feasible,
                "best_config": best.config.label() if best else "none",
                "best_read_p99.9_ms": best.read_latency_ms if best else float("nan"),
                "best_write_p99.9_ms": best.write_latency_ms if best else float("nan"),
                "best_t_visibility_ms": best.t_visibility_ms if best else float("nan"),
            }
        )
    return ExperimentResult(
        experiment_id="sla",
        title="SLA-driven replication configuration",
        paper_artifact="Section 6 (Latency/Staleness SLAs)",
        rows=rows,
        notes=(
            "The search space is all (R, W) pairs at the allowed replication factors "
            "(O(N^2) per factor, as the paper notes).",
        ),
    )
