"""Predicted-vs-observed validation of the WARS model (paper §5.2).

The paper validates its Monte Carlo predictor by running an instrumented
Cassandra cluster with known (exponential) message-latency distributions,
measuring staleness and operation latency, and comparing against predictions:
average t-visibility RMSE of 0.28% and latency N-RMSE of 0.48%.

:func:`run_validation` reproduces that experiment against the
:class:`~repro.cluster.store.DynamoCluster` substrate: the *same* WARS
distributions drive both the cluster simulator (per-message delays) and the
analytical predictor, the cluster runs the single-key overwrite workload, and
the two consistency curves / latency percentile sets are compared.

The measured side runs through :func:`repro.analysis.blocks.run_blocks`:
the workload splits into independent blocks of
:data:`VALIDATION_BLOCK_WRITES` writes, each on its own cluster and
seed-spawned generator, and ``workers > 1`` farms the blocks to a process
pool.  Results are bit-for-bit identical for any ``workers`` value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.blocks import Block, populated_bins, run_blocks
from repro.analysis.staleness import observe_staleness, operation_latencies
from repro.analysis.statistics import rmse
from repro.cluster.client import WorkloadRunner
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import AnalysisError
from repro.latency.percentiles import normalized_rmse
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload

__all__ = ["ValidationResult", "run_validation", "VALIDATION_BLOCK_WRITES"]

#: Writes per independent simulation block.  Fixed (rather than derived from
#: the worker count) so the block structure — and therefore every merged
#: result — is identical for any ``workers`` value.
VALIDATION_BLOCK_WRITES = 5_000


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one predicted-vs-observed comparison."""

    config: ReplicaConfig
    #: Time-bin centres (ms) where the consistency curves were compared.
    bin_centers_ms: tuple[float, ...]
    measured_consistency: tuple[float, ...]
    predicted_consistency: tuple[float, ...]
    #: RMSE between measured and predicted probability-of-consistency curves.
    consistency_rmse: float
    #: N-RMSE between measured and predicted read latency percentiles.
    read_latency_nrmse: float
    #: N-RMSE between measured and predicted write latency percentiles.
    write_latency_nrmse: float
    observations: int

    def summary_lines(self) -> list[str]:
        """Human-readable validation summary."""
        return [
            f"configuration: {self.config.label()}",
            f"staleness observations: {self.observations}",
            f"consistency curve RMSE: {self.consistency_rmse * 100:.2f}%",
            f"read latency N-RMSE: {self.read_latency_nrmse * 100:.2f}%",
            f"write latency N-RMSE: {self.write_latency_nrmse * 100:.2f}%",
        ]


def _validation_block(
    size: int,
    seed: np.random.SeedSequence,
    distributions: WARSDistributions,
    config: ReplicaConfig,
    write_interval_ms: float,
    read_offsets_ms: tuple[float, ...],
    draw_batch_size: int,
) -> Block:
    """Run one block's cluster workload and extract its measurements.

    Module-level so both fork and spawn pools can pickle it; it calls the
    workload and analysis functions through this module's namespace.
    """
    cluster = DynamoCluster(
        config=config,
        distributions=distributions,
        rng=np.random.default_rng(seed),
        draw_batch_size=draw_batch_size,
    )
    operations = validation_workload(
        key="validation-key",
        writes=size,
        write_interval_ms=write_interval_ms,
        read_offsets_ms=read_offsets_ms,
    )
    WorkloadRunner(cluster).run(operations)
    frame = observe_staleness(cluster.trace_log, key="validation-key")
    measured_reads, measured_writes = operation_latencies(cluster.trace_log)
    return Block(frame, measured_reads, measured_writes)


def run_validation(
    distributions: WARSDistributions,
    config: ReplicaConfig,
    writes: int = 500,
    write_interval_ms: float = 100.0,
    read_offsets_ms: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0),
    prediction_trials: int = 100_000,
    latency_percentiles: Sequence[float] = tuple(float(p) for p in range(1, 100)),
    bin_width_ms: float = 5.0,
    rng: np.random.Generator | int | None = 0,
    workers: int = 1,
    block_writes: int = VALIDATION_BLOCK_WRITES,
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
) -> ValidationResult:
    """Run the §5.2 validation experiment for one configuration.

    The cluster overwrites a single key ``writes`` times, issuing reads at the
    given offsets after each write; the WARS predictor is evaluated with the
    same latency distributions; and the consistency curves plus latency
    percentiles are compared.

    Args:
        workers: Process-pool size for the write blocks; ``1`` (default) runs
            them serially.  Results are bit-for-bit identical for any value.
        block_writes: Writes per independent block (at least 10).
        draw_batch_size: Network draw-buffer size for the clusters;
            ``1`` reproduces the legacy per-message sampling stream.
    """
    run = run_blocks(
        functools.partial(
            _validation_block,
            distributions=distributions,
            config=config,
            write_interval_ms=write_interval_ms,
            read_offsets_ms=tuple(read_offsets_ms),
            draw_batch_size=draw_batch_size,
        ),
        writes=writes,
        block_writes=block_writes,
        rng=rng,
        workers=workers,
        error=AnalysisError,
    )
    if not len(run.frame):
        raise AnalysisError("the validation workload produced no staleness observations")

    # --- Predicted side: WARS Monte Carlo with the same distributions. ---
    predictor = WARSModel(distributions=distributions, config=config)
    predicted_result = predictor.sample(
        prediction_trials, np.random.default_rng(run.predictor_seed)
    )

    centers, measured_curve = populated_bins(run.frame, bin_width_ms, AnalysisError)
    predicted_curve = [
        predicted_result.consistency_probability(max(center, 0.0)) for center in centers
    ]

    predicted_read_percentiles = predicted_result.read_latency_percentiles(latency_percentiles)
    predicted_write_percentiles = predicted_result.write_latency_percentiles(latency_percentiles)
    measured_read_percentiles = list(
        np.percentile(run.read_latencies, list(latency_percentiles))
    )
    measured_write_percentiles = list(
        np.percentile(run.write_latencies, list(latency_percentiles))
    )

    return ValidationResult(
        config=config,
        bin_centers_ms=tuple(centers),
        measured_consistency=tuple(measured_curve),
        predicted_consistency=tuple(predicted_curve),
        consistency_rmse=rmse(predicted_curve, measured_curve),
        read_latency_nrmse=normalized_rmse(
            predicted_read_percentiles, measured_read_percentiles
        ),
        write_latency_nrmse=normalized_rmse(
            predicted_write_percentiles, measured_write_percentiles
        ),
        observations=len(run.frame),
    )
