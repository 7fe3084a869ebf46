"""Measuring staleness from cluster traces.

These functions turn a :class:`~repro.cluster.tracelog.ColumnarTraceLog`
into the quantities the paper reports:

* **t-visibility** — for every completed read, how long after the latest
  commit did it start, and did it observe that commit?  Binning those
  observations gives the empirical probability-of-consistency curve that the
  §5.2 validation compares against the WARS prediction.
* **k-staleness** — how many committed versions behind was each read?  The
  distribution of version lags validates the Equation 2 closed form.
* **operation latency** — read and write latencies extracted from the traces
  for the latency half of the validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.statistics import BinnedSeries, binned_fraction
from repro.analysis.windows import prefix_dominance_counts
from repro.cluster.tracelog import _NO_VERSION, ColumnarTraceLog
from repro.exceptions import AnalysisError

__all__ = [
    "StalenessObservation",
    "StalenessFrame",
    "observe_staleness",
    "consistency_by_time",
    "measured_t_visibility",
    "version_lags",
    "k_staleness_fraction",
    "operation_latencies",
]


@dataclass(frozen=True, slots=True)
class StalenessObservation:
    """One read's staleness outcome relative to the latest prior commit."""

    operation_id: int
    key: str
    #: Time between the latest prior commit and the read's start (ms).
    t_since_commit_ms: float
    #: Whether the read returned that latest committed version (or newer).
    consistent: bool
    #: Number of committed versions the returned value lagged behind (0 = fresh).
    version_lag: int


@dataclass(frozen=True, slots=True)
class StalenessFrame:
    """Staleness observations as aligned columns — the array-native twin of
    a ``list[StalenessObservation]``.

    The curve functions (:func:`consistency_by_time`,
    :func:`measured_t_visibility`, :func:`version_lags`,
    :func:`k_staleness_fraction`) accept a frame directly, skipping the
    per-observation attribute walks; :meth:`observations` materialises the
    object list when row objects are genuinely needed, and :meth:`concat`
    joins the frames of independent runs.
    """

    operation_ids: np.ndarray
    key_ids: np.ndarray
    #: Interned-id → key string table the ``key_ids`` column indexes into.
    key_table: tuple
    t_since_commit_ms: np.ndarray
    consistent: np.ndarray
    version_lag: np.ndarray
    #: Largest operation id in the trace log the frame was read from, over
    #: all its writes and reads, observed or not (for a cluster's log, the
    #: number of operations it ran).
    last_operation_id: int

    def __len__(self) -> int:
        return int(self.operation_ids.shape[0])

    @classmethod
    def concat(cls, frames: Sequence["StalenessFrame"]) -> "StalenessFrame":
        """Join frames row-wise, in order.

        Each frame's key ids index its own run's string table, so they are
        remapped into one joined key table (each string once).  Each run
        numbers its operations from 1, so a frame's operation ids are offset
        by the :attr:`last_operation_id` of every frame before it: a joined
        id minus that offset is the row's id in its own run's trace log, and
        a serial run gives the same joined ids as a sharded one.
        """
        joined: dict[str, int] = {}
        key_ids = []
        operation_ids = []
        offset = 0
        for frame in frames:
            remap = np.array(
                [joined.setdefault(key, len(joined)) for key in frame.key_table],
                dtype=np.int64,
            )
            key_ids.append(remap[frame.key_ids])
            operation_ids.append(frame.operation_ids + offset)
            offset += frame.last_operation_id
        return cls(
            operation_ids=np.concatenate(operation_ids),
            key_ids=np.concatenate(key_ids),
            key_table=tuple(joined),
            t_since_commit_ms=np.concatenate([frame.t_since_commit_ms for frame in frames]),
            consistent=np.concatenate([frame.consistent for frame in frames]),
            version_lag=np.concatenate([frame.version_lag for frame in frames]),
            last_operation_id=offset,
        )

    def observations(self) -> list[StalenessObservation]:
        """Materialise the equivalent ``StalenessObservation`` list."""
        table = self.key_table
        return [
            StalenessObservation(op, table[key_id], t, flag, lag)
            for op, key_id, t, flag, lag in zip(
                self.operation_ids.tolist(),
                self.key_ids.tolist(),
                self.t_since_commit_ms.tolist(),
                self.consistent.tolist(),
                self.version_lag.tolist(),
            )
        ]


def _empty_frame(last_operation_id: int) -> StalenessFrame:
    return StalenessFrame(
        operation_ids=np.empty(0, dtype=np.int64),
        key_ids=np.empty(0, dtype=np.int64),
        key_table=(),
        t_since_commit_ms=np.empty(0, dtype=np.float64),
        consistent=np.empty(0, dtype=bool),
        version_lag=np.empty(0, dtype=np.int64),
        last_operation_id=last_operation_id,
    )


def observe_staleness(
    trace_log: ColumnarTraceLog, key: str | None = None
) -> StalenessFrame:
    """Extract per-read staleness observations from a trace log, as columns.

    Reads that start before any write commits are skipped (there is nothing to
    be stale against).  Reads may return versions newer than the latest commit
    at their start time (in-flight writes); the paper counts these as
    consistent, and so do we.  No per-read Python objects are built: the
    frame feeds straight into the curve functions, and
    :meth:`StalenessFrame.observations` gives the row objects.

    Versions are encoded as ``timestamp * modulus + writer_rank`` (writer
    ranks taken over the *sorted* string table), which replicates the
    ``(timestamp, writer)`` lexicographic :class:`~repro.cluster.versioning.Version`
    order as plain int64 comparisons; ``-1`` encodes "read returned no value",
    strictly below every real version.  Per key, the committed writes form a
    commit-time-ordered column: each read's insertion count is one
    ``searchsorted``, the latest version it raced against is a cumulative
    maximum, that maximum's commit time is recovered from the last
    strict-increase index, and version lags come from
    :func:`~repro.analysis.windows.prefix_dominance_counts`.
    """
    write_columns = trace_log.write_columns()
    read_columns = trace_log.read_columns()
    last_operation_id = int(
        max(
            write_columns["operation_id"].max(initial=0),
            read_columns["operation_id"].max(initial=0),
        )
    )
    read_rows = trace_log.completed_read_rows(key)
    total_reads = read_rows.shape[0]
    if total_reads == 0:
        return _empty_frame(last_operation_id)
    write_rows = trace_log.committed_write_rows(key)
    if write_rows.shape[0] == 0:
        return _empty_frame(last_operation_id)
    ranks = trace_log.writer_sort_ranks()
    modulus = len(trace_log.string_table()) + 1

    write_keys = write_columns["key"][write_rows]
    commit_times = write_columns["committed_ms"][write_rows]
    write_enc = (
        write_columns["version_ts"][write_rows] * modulus
        + ranks[write_columns["version_writer"][write_rows]]
    )
    read_keys = read_columns["key"][read_rows]
    read_started = read_columns["started_ms"][read_rows]
    returned_ts = read_columns["returned_ts"][read_rows]
    returned_none = returned_ts == _NO_VERSION
    safe_writer = np.where(returned_none, 0, read_columns["returned_writer"][read_rows])
    read_enc = np.where(
        returned_none, np.int64(-1), returned_ts * modulus + ranks[safe_writer]
    )

    # Per-read outputs, indexed by global (start-time-ordered) read position.
    emit = np.zeros(total_reads, dtype=bool)
    t_since = np.zeros(total_reads, dtype=np.float64)
    consistent = np.zeros(total_reads, dtype=bool)
    lag = np.zeros(total_reads, dtype=np.int64)

    # Group both sides by key; stable sorts preserve commit order within each
    # write group and start order within each read group.
    write_group = np.argsort(write_keys, kind="stable")
    read_group = np.argsort(read_keys, kind="stable")
    grouped_write_keys = write_keys[write_group]
    grouped_read_keys = read_keys[read_group]
    for key_id in np.unique(grouped_read_keys):
        write_lo = np.searchsorted(grouped_write_keys, key_id, side="left")
        write_hi = np.searchsorted(grouped_write_keys, key_id, side="right")
        if write_lo == write_hi:
            continue  # no committed writes for this key: nothing to be stale against
        read_lo = np.searchsorted(grouped_read_keys, key_id, side="left")
        read_hi = np.searchsorted(grouped_read_keys, key_id, side="right")
        writes_here = write_group[write_lo:write_hi]
        reads_here = read_group[read_lo:read_hi]
        key_commit_times = commit_times[writes_here]
        key_write_enc = write_enc[writes_here]
        inserted = np.searchsorted(key_commit_times, read_started[reads_here], side="right")
        has_prior_commit = inserted > 0
        if not has_prior_commit.any():
            continue
        prefix_max = np.maximum.accumulate(key_write_enc)
        new_max = np.empty(key_write_enc.shape[0], dtype=bool)
        new_max[0] = True
        new_max[1:] = key_write_enc[1:] > prefix_max[:-1]
        last_increase = np.maximum.accumulate(
            np.where(new_max, np.arange(key_write_enc.shape[0]), 0)
        )
        positions = reads_here[has_prior_commit]
        inserted_here = inserted[has_prior_commit]
        latest_enc = prefix_max[inserted_here - 1]
        emit[positions] = True
        t_since[positions] = (
            read_started[positions] - key_commit_times[last_increase[inserted_here - 1]]
        )
        returned_here = read_enc[positions]
        is_consistent = returned_here >= latest_enc
        consistent[positions] = is_consistent
        lag_here = np.zeros(positions.shape[0], dtype=np.int64)
        none_here = returned_none[positions]
        lag_here[~is_consistent & none_here] = inserted_here[~is_consistent & none_here]
        needs_count = ~is_consistent & ~none_here
        if needs_count.any():
            dominated = prefix_dominance_counts(
                key_write_enc, inserted_here[needs_count], returned_here[needs_count]
            )
            lag_here[needs_count] = inserted_here[needs_count] - dominated
        lag[positions] = lag_here

    positions = np.flatnonzero(emit)
    operation_ids = read_columns["operation_id"][read_rows]
    return StalenessFrame(
        operation_ids=operation_ids[positions],
        key_ids=read_keys[positions],
        key_table=tuple(trace_log.string_table()),
        t_since_commit_ms=t_since[positions],
        consistent=consistent[positions],
        version_lag=lag[positions],
        last_operation_id=last_operation_id,
    )


def _times_and_flags(
    observations: "Sequence[StalenessObservation] | StalenessFrame",
) -> tuple[np.ndarray, np.ndarray]:
    """``(t_since_commit_ms, consistent)`` columns from either representation."""
    if isinstance(observations, StalenessFrame):
        return observations.t_since_commit_ms, observations.consistent
    return (
        np.array([obs.t_since_commit_ms for obs in observations], dtype=float),
        np.array([obs.consistent for obs in observations], dtype=bool),
    )


def consistency_by_time(
    observations: "Sequence[StalenessObservation] | StalenessFrame",
    bin_edges: Sequence[float],
) -> BinnedSeries:
    """Empirical P(consistent read) binned by time since the latest commit."""
    if not len(observations):
        raise AnalysisError("no staleness observations to bin")
    times, flags = _times_and_flags(observations)
    return binned_fraction(times, flags, bin_edges)


def measured_t_visibility(
    observations: "Sequence[StalenessObservation] | StalenessFrame",
    target_probability: float,
) -> float:
    """Smallest observed ``t`` beyond which the running consistency fraction meets the target.

    Sorts observations by ``t`` and finds the smallest threshold such that the
    fraction of consistent reads among observations with ``t >= threshold``
    reaches the target.  Returns ``inf`` when even the largest observed ``t``
    does not reach the target.
    """
    if not len(observations):
        raise AnalysisError("no staleness observations available")
    if not 0.0 < target_probability <= 1.0:
        raise AnalysisError(
            f"target probability must be in (0, 1], got {target_probability}"
        )
    times, flags = _times_and_flags(observations)
    consistent_flags = flags.astype(float)
    order = np.argsort(times, kind="stable")
    times = times[order]
    # Suffix means: fraction consistent among reads with t >= t_i.
    suffix_fraction = np.cumsum(consistent_flags[order][::-1])[::-1] / np.arange(
        times.shape[0], 0, -1
    )
    meets_target = suffix_fraction >= target_probability
    if not meets_target.any():
        return float("inf")
    return float(times[np.argmax(meets_target)])


def version_lags(
    observations: "Sequence[StalenessObservation] | StalenessFrame",
) -> np.ndarray:
    """Array of per-read version lags (0 = returned the freshest committed version)."""
    if not len(observations):
        raise AnalysisError("no staleness observations available")
    if isinstance(observations, StalenessFrame):
        return np.array(observations.version_lag, dtype=int)
    return np.array([obs.version_lag for obs in observations], dtype=int)


def k_staleness_fraction(
    observations: "Sequence[StalenessObservation] | StalenessFrame", k: int
) -> float:
    """Measured probability that reads were within ``k`` versions of the freshest commit."""
    if k < 1:
        raise AnalysisError(f"version tolerance k must be >= 1, got {k}")
    lags = version_lags(observations)
    return float(np.mean(lags < k))


def operation_latencies(
    trace_log: ColumnarTraceLog,
) -> tuple[np.ndarray, np.ndarray]:
    """``(read_latencies, write_latencies)`` in ms for completed operations.

    A pure column pass: mask the NaN completion sentinels and subtract the
    start column.  Latencies come back in record order.
    """
    read_columns = trace_log.read_columns()
    completed = read_columns["completed_ms"]
    read_mask = ~np.isnan(completed)
    reads = completed[read_mask] - read_columns["started_ms"][read_mask]
    write_columns = trace_log.write_columns()
    committed = write_columns["committed_ms"]
    write_mask = ~np.isnan(committed)
    writes = committed[write_mask] - write_columns["started_ms"][write_mask]
    if reads.size == 0 and writes.size == 0:
        raise AnalysisError("trace log contains no completed operations")
    return reads, writes
