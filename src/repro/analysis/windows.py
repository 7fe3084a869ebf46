"""Vectorized prefix-window queries over columns.

The columnar staleness pass (:func:`repro.analysis.staleness.observe_staleness`)
needs one non-trivial primitive: for each read it must count how many of the
writes committed *before the read started* (a prefix of the commit-ordered
version column) carry versions no newer than the version the read returned
(a per-read threshold).  Done naively that is an O(W) scan per read.  A
Fenwick tree over version ranks avoids the scan, but walking it is an
inherently serial Python loop.

:func:`prefix_dominance_counts` answers all reads at once with a dyadic
merge tree: the value column is padded to a power of two and sorted inside
aligned blocks of every size ``2^k``; each query prefix ``[0, P)`` decomposes
into at most ``log2 N`` such blocks, and a block contributes the number of its
entries at or below the threshold via one ``searchsorted``.  Because block
starts increase with flat position, a single composite key
``block_index * M + rank`` keeps each level's blocks globally sorted, so every
level is answered for *all* queries with one vectorized ``searchsorted`` —
O((N + Q) log N) work with no Python-level per-query loop.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AnalysisError

__all__ = ["prefix_dominance_counts"]


def prefix_dominance_counts(
    values: np.ndarray, prefixes: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """For each query ``j``, count ``{i < prefixes[j] : values[i] <= thresholds[j]}``.

    Parameters
    ----------
    values:
        The column being queried, in prefix order (for the staleness pass:
        encoded versions in commit-time order).
    prefixes:
        Per-query prefix lengths, each in ``[0, len(values)]``.
    thresholds:
        Per-query inclusive upper bounds, compared against ``values``.

    Returns
    -------
    An ``int64`` array of per-query counts, aligned with ``prefixes``.
    """
    values = np.asarray(values)
    prefixes = np.asarray(prefixes, dtype=np.int64)
    thresholds = np.asarray(thresholds)
    if prefixes.shape != thresholds.shape:
        raise AnalysisError(
            f"prefixes and thresholds must align, got {prefixes.shape} vs {thresholds.shape}"
        )
    counts = np.zeros(prefixes.shape[0], dtype=np.int64)
    total = values.shape[0]
    if total == 0 or prefixes.shape[0] == 0:
        return counts
    if prefixes.min() < 0 or prefixes.max() > total:
        raise AnalysisError(f"prefixes must lie in [0, {total}]")

    # Rank-compress so thresholds become integer ranks: the count of values
    # <= threshold equals the count of ranks <= rank(threshold).
    unique = np.unique(values)
    ranks = np.searchsorted(unique, values)
    threshold_ranks = np.searchsorted(unique, thresholds, side="right") - 1

    # Pad to a power of two with a sentinel rank no threshold can reach.
    levels = max(1, int(total - 1).bit_length())
    padded_size = 1 << levels
    sentinel = unique.shape[0]
    padded = np.full(padded_size, sentinel, dtype=np.int64)
    padded[:total] = ranks
    modulus = sentinel + 1

    # Walk each query's prefix decomposition from the widest block down,
    # answering one level for every query with a single searchsorted.
    starts = np.zeros_like(prefixes)
    for level in range(levels, -1, -1):
        block = 1 << level
        active = np.flatnonzero((prefixes >> level) & 1)
        if active.shape[0]:
            sorted_blocks = np.sort(padded.reshape(-1, block), axis=1)
            flat = sorted_blocks.ravel() + np.repeat(
                np.arange(sorted_blocks.shape[0], dtype=np.int64) * modulus, block
            )
            rows = starts[active] >> level
            positions = np.searchsorted(
                flat, rows * modulus + threshold_ranks[active], side="right"
            )
            counts[active] += positions - rows * block
            starts[active] += block
    return counts
