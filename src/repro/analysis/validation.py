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

Sharded runs
------------
The paper's 50,000 writes per latency combination make a serial simulation
the bottleneck of a full grid, so ``workers=`` farms *blocks* of writes to a
process pool: the workload is split into independent blocks of
:data:`VALIDATION_BLOCK_WRITES` writes, each block runs its own cluster with
a seed spawned from one root :class:`numpy.random.SeedSequence`, and the
per-block staleness observations and operation latencies are merged in block
order.  The block structure depends only on ``writes`` (never on
``workers``), so results are **bit-for-bit identical for any worker count**,
mirroring the sweep-engine merge contract of
:mod:`repro.montecarlo.engine`.  ``workers=None`` (the default) preserves
the historical single-cluster path, where one generator drives the whole
workload sequentially.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.staleness import (
    StalenessObservation,
    consistency_by_time,
    observe_staleness,
    operation_latencies,
)
from repro.analysis.statistics import rmse
from repro.cluster.client import WorkloadRunner
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import AnalysisError
from repro.latency.base import as_rng
from repro.latency.percentiles import normalized_rmse
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload

__all__ = ["ValidationResult", "run_validation", "VALIDATION_BLOCK_WRITES"]

#: Writes per independent simulation block in sharded validation runs.  Fixed
#: (rather than derived from the worker count) so the block structure — and
#: therefore every merged result — is identical for any ``workers`` value.
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


def _compare_curves(
    observations: Sequence[StalenessObservation],
    predicted_result,
    bin_edges: Sequence[float],
) -> tuple[list[float], list[float], list[float]]:
    """Bin measured observations and evaluate the prediction at the bin centres."""
    binned = consistency_by_time(observations, bin_edges)
    centers: list[float] = []
    measured: list[float] = []
    predicted: list[float] = []
    for center, fraction, count in zip(binned.bin_centers, binned.fractions, binned.counts):
        if count == 0 or not np.isfinite(fraction):
            continue
        centers.append(center)
        measured.append(fraction)
        predicted.append(predicted_result.consistency_probability(max(center, 0.0)))
    if not centers:
        raise AnalysisError("no populated time bins; widen the bin edges or add reads")
    return centers, measured, predicted


# ---------------------------------------------------------------------------
# Sharded measurement: independent blocks of writes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ValidationBlockSpec:
    """Picklable description of one independent simulation block."""

    distributions: WARSDistributions
    config: ReplicaConfig
    writes: int
    write_interval_ms: float
    read_offsets_ms: tuple[float, ...]
    seed: np.random.SeedSequence
    draw_batch_size: int


def _run_validation_block(
    spec: _ValidationBlockSpec,
) -> tuple[list[StalenessObservation], np.ndarray, np.ndarray]:
    """Run one block's cluster workload and extract its measurements.

    Module-level so both fork and spawn pools can pickle it.
    """
    cluster = DynamoCluster(
        config=spec.config,
        distributions=spec.distributions,
        rng=np.random.default_rng(spec.seed),
        draw_batch_size=spec.draw_batch_size,
    )
    operations = validation_workload(
        key="validation-key",
        writes=spec.writes,
        write_interval_ms=spec.write_interval_ms,
        read_offsets_ms=spec.read_offsets_ms,
    )
    WorkloadRunner(cluster).run(operations)
    observations = observe_staleness(cluster.trace_log, key="validation-key")
    measured_reads, measured_writes = operation_latencies(cluster.trace_log)
    return observations, measured_reads, measured_writes


def _block_sizes(writes: int, block_writes: int) -> list[int]:
    """Split ``writes`` into block sizes; a tail below 10 writes merges back."""
    count = math.ceil(writes / block_writes)
    sizes = [block_writes] * (count - 1)
    tail = writes - block_writes * (count - 1)
    if tail < 10 and sizes:
        sizes[-1] += tail
    else:
        sizes.append(tail)
    return sizes


def _root_entropy(rng: np.random.Generator | int | None) -> int | None:
    """Derive the root seed for block spawning from any accepted ``rng`` form.

    An integer seed is used directly; a generator contributes one draw (so
    repeated calls sharing a generator — e.g. grid cells — get distinct but
    reproducible roots); ``None`` stays ``None`` (fresh OS entropy).
    """
    if rng is None:
        return None
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63))
    return int(rng)


def _measure_sharded(
    distributions: WARSDistributions,
    config: ReplicaConfig,
    writes: int,
    write_interval_ms: float,
    read_offsets_ms: tuple[float, ...],
    root: np.random.SeedSequence,
    block_writes: int,
    draw_batch_size: int,
    workers: int,
) -> tuple[list[StalenessObservation], np.ndarray, np.ndarray]:
    """Run the measured side as independent blocks, serially or on a pool."""
    sizes = _block_sizes(writes, block_writes)
    seeds = root.spawn(len(sizes))
    specs = [
        _ValidationBlockSpec(
            distributions=distributions,
            config=config,
            writes=size,
            write_interval_ms=write_interval_ms,
            read_offsets_ms=tuple(read_offsets_ms),
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
            results = pool.map(_run_validation_block, specs, chunksize=1)
    else:
        results = [_run_validation_block(spec) for spec in specs]

    observations: list[StalenessObservation] = []
    read_blocks: list[np.ndarray] = []
    write_blocks: list[np.ndarray] = []
    for block_observations, block_reads, block_writes_lat in results:
        observations.extend(block_observations)
        read_blocks.append(block_reads)
        write_blocks.append(block_writes_lat)
    return observations, np.concatenate(read_blocks), np.concatenate(write_blocks)


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
    workers: int | None = None,
    block_writes: int | None = None,
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
) -> ValidationResult:
    """Run the §5.2 validation experiment for one configuration.

    The cluster overwrites a single key ``writes`` times, issuing reads at the
    given offsets after each write; the WARS predictor is evaluated with the
    same latency distributions; and the consistency curves plus latency
    percentiles are compared.

    Args:
        workers: ``None`` (default) runs the historical single-cluster serial
            path.  Any integer >= 1 switches to the *blocked* path — writes
            split into :data:`VALIDATION_BLOCK_WRITES`-write blocks with
            SeedSequence-spawned seeds — and values > 1 additionally farm the
            blocks to a process pool.  Blocked results are bit-for-bit
            identical for any ``workers`` value.
        block_writes: Override the block size (implies the blocked path).
        draw_batch_size: Network draw-buffer size for the cluster(s);
            ``1`` reproduces the legacy per-message sampling stream.
    """
    if writes < 10:
        raise AnalysisError(f"at least 10 writes are required for validation, got {writes}")
    if workers is not None and workers < 1:
        raise AnalysisError(f"workers must be >= 1, got {workers}")
    if block_writes is not None and block_writes < 10:
        raise AnalysisError(f"block_writes must be >= 10, got {block_writes}")

    sharded = workers is not None or block_writes is not None
    if sharded:
        root = np.random.SeedSequence(_root_entropy(rng))
        # Reserve a dedicated child for the predictor before the block seeds
        # so measured and predicted streams are independent.
        predictor_seed, blocks_root = root.spawn(2)
        observations, measured_reads, measured_writes = _measure_sharded(
            distributions=distributions,
            config=config,
            writes=writes,
            write_interval_ms=write_interval_ms,
            read_offsets_ms=tuple(read_offsets_ms),
            root=blocks_root,
            block_writes=block_writes or VALIDATION_BLOCK_WRITES,
            draw_batch_size=draw_batch_size,
            workers=workers or 1,
        )
        predictor_rng = np.random.default_rng(predictor_seed)
    else:
        generator = as_rng(rng)
        cluster = DynamoCluster(
            config=config,
            distributions=distributions,
            rng=generator,
            draw_batch_size=draw_batch_size,
        )
        operations = validation_workload(
            key="validation-key",
            writes=writes,
            write_interval_ms=write_interval_ms,
            read_offsets_ms=read_offsets_ms,
        )
        WorkloadRunner(cluster).run(operations)
        observations = observe_staleness(cluster.trace_log, key="validation-key")
        measured_reads, measured_writes = operation_latencies(cluster.trace_log)
        predictor_rng = generator

    if not observations:
        raise AnalysisError("the validation workload produced no staleness observations")

    # --- Predicted side: WARS Monte Carlo with the same distributions. ---
    predictor = WARSModel(distributions=distributions, config=config)
    predicted_result = predictor.sample(prediction_trials, predictor_rng)

    max_t = max(obs.t_since_commit_ms for obs in observations)
    bin_edges = np.arange(0.0, max_t + bin_width_ms, bin_width_ms)
    if bin_edges.size < 2:
        bin_edges = np.array([0.0, max(max_t, bin_width_ms)])
    centers, measured_curve, predicted_curve = _compare_curves(
        observations, predicted_result, bin_edges
    )

    predicted_read_percentiles = predicted_result.read_latency_percentiles(latency_percentiles)
    predicted_write_percentiles = predicted_result.write_latency_percentiles(latency_percentiles)
    measured_read_percentiles = list(np.percentile(measured_reads, list(latency_percentiles)))
    measured_write_percentiles = list(
        np.percentile(measured_writes, list(latency_percentiles))
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
        observations=len(observations),
    )
