"""§5.2 experimental validation: WARS prediction vs the cluster substrate.

The paper injects exponentially distributed WARS latencies into an
instrumented Cassandra deployment (read repair disabled, only the first R
responses considered), measures staleness and latency over 50,000 writes, and
reports prediction error: average t-visibility RMSE 0.28% (max 0.53%) and
latency N-RMSE 0.48% (max 0.90%).

Here the instrumented store is the discrete-event cluster from
``repro.cluster``; the experiment sweeps the same grid of exponential
W and A=R=S means and reports the prediction error per combination.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.validation import run_validation
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ExperimentError
from repro.experiments.registry import ExperimentResult, register
from repro.latency.base import as_rng
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions

__all__ = [
    "run_validation_grid",
    "VALIDATION_W_MEANS_MS",
    "VALIDATION_ARS_MEANS_MS",
    "VALIDATION_CONFIGS",
]

#: W means (ms) from §5.2: λ ∈ {0.05, 0.1, 0.2}.
VALIDATION_W_MEANS_MS: tuple[float, ...] = (20.0, 10.0, 5.0)
#: A=R=S means (ms) from §5.2: λ ∈ {0.1, 0.2, 0.5}.
VALIDATION_ARS_MEANS_MS: tuple[float, ...] = (10.0, 5.0, 2.0)
#: Replication configurations swept by the full grid: the paper's validation
#: cell plus the partial-quorum shapes its Figure 4 analysis emphasises.
VALIDATION_CONFIGS: tuple[ReplicaConfig, ...] = (
    ReplicaConfig(n=3, r=1, w=1),
    ReplicaConfig(n=3, r=1, w=2),
    ReplicaConfig(n=3, r=2, w=1),
)


@register(
    "validation",
    "§5.2: WARS Monte Carlo prediction vs the instrumented Dynamo-style cluster",
)
def run_validation_grid(
    trials: int = 400,
    rng: np.random.Generator | int | None = 0,
    config: ReplicaConfig | None = None,
    configs: "tuple[ReplicaConfig, ...] | list[ReplicaConfig] | None" = None,
    prediction_trials: int = 100_000,
    workers: int = 1,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Run the predicted-vs-observed comparison over the full §5.2 grid.

    The grid is ``configs`` × W means × A=R=S means; the default sweeps the
    paper's ``N=3, R=1, W=1`` cell plus the other strict-minority quorum
    shapes (:data:`VALIDATION_CONFIGS`), so every latency combination is
    validated for every configuration rather than one cell.

    ``trials`` is the number of *writes* issued per grid point (the paper uses
    50,000; several hundred already give sub-2% curve RMSE and keep the
    benchmark runtime modest — pass ``trials=50_000`` with ``workers=N`` for
    a paper-fidelity grid in reasonable wall-clock time).

    Args:
        config: Sweep a single configuration (back-compat shorthand for
            ``configs=(config,)``; mutually exclusive with ``configs``).
        configs: Replication configurations to sweep; defaults to
            :data:`VALIDATION_CONFIGS`.
        workers: Forwarded to :func:`~repro.analysis.validation.run_validation`:
            each cell's seed-spawned write blocks run on a process pool of
            this size (``1``, the default, runs them serially; results are
            identical for any worker count).
        draw_batch_size: Network draw-buffer size per simulated cluster
            (default: the cluster's own default; ``1`` is the legacy
            per-message sampling stream).
    """
    if config is not None and configs is not None:
        raise ExperimentError("pass either config= or configs=, not both")
    swept_configs = tuple(configs) if configs is not None else (
        (config,) if config is not None else VALIDATION_CONFIGS
    )
    generator = as_rng(rng)
    rows = []
    validation_kwargs: dict = {}
    if draw_batch_size is not None:
        validation_kwargs["draw_batch_size"] = draw_batch_size
    for swept_config in swept_configs:
        for w_mean in VALIDATION_W_MEANS_MS:
            for ars_mean in VALIDATION_ARS_MEANS_MS:
                distributions = WARSDistributions.write_specialised(
                    write=ExponentialLatency.from_mean(w_mean),
                    other=ExponentialLatency.from_mean(ars_mean),
                    name=f"exp W={w_mean}ms ARS={ars_mean}ms",
                )
                result = run_validation(
                    distributions=distributions,
                    config=swept_config,
                    writes=trials,
                    write_interval_ms=max(10.0 * w_mean, 100.0),
                    read_offsets_ms=(1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0),
                    prediction_trials=prediction_trials,
                    rng=generator,
                    workers=workers,
                    **validation_kwargs,
                )
                rows.append(
                    {
                        "n": swept_config.n,
                        "r": swept_config.r,
                        "w": swept_config.w,
                        "w_mean_ms": w_mean,
                        "ars_mean_ms": ars_mean,
                        "writes": trials,
                        "observations": result.observations,
                        "consistency_rmse_pct": result.consistency_rmse * 100.0,
                        "read_latency_nrmse_pct": result.read_latency_nrmse * 100.0,
                        "write_latency_nrmse_pct": result.write_latency_nrmse * 100.0,
                    }
                )
    mean_rmse = float(np.mean([row["consistency_rmse_pct"] for row in rows]))
    return ExperimentResult(
        experiment_id="validation",
        title="WARS prediction vs instrumented cluster",
        paper_artifact="Section 5.2",
        rows=rows,
        notes=(
            f"grid-average consistency RMSE: {mean_rmse:.2f}% "
            f"(paper: 0.28% average with 50,000 writes per point)",
            "Prediction error shrinks with the number of writes; the cluster and the "
            "predictor consume identical latency distributions, so residual error is "
            "Monte Carlo noise plus time-binning of the measured curve.",
        ),
    )
