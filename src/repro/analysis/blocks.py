"""Independent seeded write blocks: one runner behind every measured run.

The paper's §5.2 validation measures 50,000 writes per latency cell, which
makes one serial simulation the bottleneck of a grid.  Validation cells
(:func:`repro.analysis.validation.run_validation`), scenario runs
(:func:`repro.scenarios.divergence.run_scenario`) and the adaptive-recovery
loop (:func:`repro.faults.recovery.run_adaptive_recovery`) therefore all
measure a simulated cluster the same way, through :func:`run_blocks`:

* the writes split into independent blocks of ``block_writes`` writes
  (:func:`block_sizes`);
* one root :class:`numpy.random.SeedSequence` is derived from ``rng``
  (:func:`root_entropy`); its first child seeds the predictor, its second is
  the root of the block seeds, one child per block, in block order;
* each block runs its own cluster, serially or on a process pool, and
  returns a :class:`Block`: its staleness frame and operation latencies;
* the blocks merge in block order by concatenation.

The block structure depends only on ``writes`` and ``block_writes``, never on
``workers``, so results are bit-for-bit identical for any worker count.
Callers that need more seeded streams spawn further children of
:attr:`BlockedRun.root`.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.staleness import StalenessFrame, consistency_by_time

__all__ = [
    "MIN_BLOCK_WRITES",
    "Block",
    "BlockedRun",
    "block_sizes",
    "root_entropy",
    "run_blocks",
    "populated_bins",
]

#: Fewest writes a run, or a block, may have; a smaller tail block merges
#: into the block before it.
MIN_BLOCK_WRITES = 10


@dataclass(frozen=True)
class Block:
    """What one block measured."""

    frame: StalenessFrame
    read_latencies: np.ndarray
    write_latencies: np.ndarray
    #: Anything else the block function reports (dropped messages, a trace log).
    extra: object = None


@dataclass(frozen=True)
class BlockedRun:
    """The blocks of one run, merged in block order."""

    #: Root seed; children 0 and 1 are the predictor seed and the blocks root.
    root: np.random.SeedSequence
    predictor_seed: np.random.SeedSequence
    sizes: tuple[int, ...]
    frame: StalenessFrame
    read_latencies: np.ndarray
    write_latencies: np.ndarray
    #: Each block's :attr:`Block.extra`, in block order.
    extras: tuple


def block_sizes(writes: int, block_writes: int) -> list[int]:
    """Split ``writes`` into block sizes; a tail below 10 writes merges back."""
    count = math.ceil(writes / block_writes)
    sizes = [block_writes] * (count - 1)
    tail = writes - block_writes * (count - 1)
    if tail < MIN_BLOCK_WRITES and sizes:
        sizes[-1] += tail
    else:
        sizes.append(tail)
    return sizes


def root_entropy(rng: np.random.Generator | int | None) -> int | None:
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


def run_blocks(
    block: Callable[[int, np.random.SeedSequence], Block],
    writes: int,
    block_writes: int,
    rng: np.random.Generator | int | None,
    workers: int,
    error: type[Exception],
) -> BlockedRun:
    """Run ``block(size, seed)`` for every block and merge the results.

    ``block`` must be picklable (a module-level function or a
    :func:`functools.partial` of one) when ``workers > 1``.  Bad arguments
    raise ``error``, so each caller keeps its own error type.
    """
    if writes < MIN_BLOCK_WRITES:
        raise error(f"at least {MIN_BLOCK_WRITES} writes are required, got {writes}")
    if block_writes < MIN_BLOCK_WRITES:
        raise error(f"block_writes must be >= {MIN_BLOCK_WRITES}, got {block_writes}")
    if workers < 1:
        raise error(f"workers must be >= 1, got {workers}")

    root = np.random.SeedSequence(root_entropy(rng))
    # The predictor's child comes before the block seeds, so measured and
    # predicted streams are independent.
    predictor_seed, blocks_root = root.spawn(2)
    sizes = block_sizes(writes, block_writes)
    jobs = list(zip(sizes, blocks_root.spawn(len(sizes))))
    if workers > 1 and len(jobs) > 1:
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(start_method).Pool(
            processes=min(workers, len(jobs))
        ) as pool:
            blocks = pool.starmap(block, jobs, chunksize=1)
    else:
        blocks = [block(size, seed) for size, seed in jobs]

    return BlockedRun(
        root=root,
        predictor_seed=predictor_seed,
        sizes=tuple(sizes),
        frame=StalenessFrame.concat([done.frame for done in blocks]),
        read_latencies=np.concatenate([done.read_latencies for done in blocks]),
        write_latencies=np.concatenate([done.write_latencies for done in blocks]),
        extras=tuple(done.extra for done in blocks),
    )


def populated_bins(
    frame: StalenessFrame, bin_width_ms: float, error: type[Exception]
) -> tuple[list[float], list[float]]:
    """``(centres, measured consistency)`` of the populated time bins.

    The bins are ``bin_width_ms`` wide from 0 to the largest observed time
    since commit; empty bins are skipped.  Raises ``error`` when none is
    populated.
    """
    max_t = frame.t_since_commit_ms.max()
    bin_edges = np.arange(0.0, max_t + bin_width_ms, bin_width_ms)
    if bin_edges.size < 2:
        bin_edges = np.array([0.0, max(max_t, bin_width_ms)])
    binned = consistency_by_time(frame, bin_edges)
    centers: list[float] = []
    measured: list[float] = []
    for center, fraction, count in zip(binned.bin_centers, binned.fractions, binned.counts):
        if count and np.isfinite(fraction):
            centers.append(center)
            measured.append(fraction)
    if not centers:
        raise error("no populated time bins; widen the bins or add reads")
    return centers, measured
