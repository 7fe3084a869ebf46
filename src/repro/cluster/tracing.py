"""Per-operation trace records.

The validation methodology of §5.2 hinges on instrumenting the store: every
write records when each replica received it and when it committed, and every
read records which replicas answered among the first ``R`` and which version
was returned.  These traces are what the analysis package consumes to measure
empirical t-visibility, k-staleness, and the WARS latency components.

Recording goes through a narrow scalar API (``begin_write`` /
``note_write_*`` / ``begin_read`` / ``note_read_*``) shared with the
struct-of-arrays backend in :mod:`repro.cluster.tracelog`; here the returned
reference *is* the trace object and the notes mutate it in place.  Queries
are cached and invalidated by a mutation counter, and the per-key version
lookups are binary searches over a per-key commit-time index instead of
O(writes) full-log scans.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.versioning import Version

__all__ = ["WriteTrace", "ReadTrace", "TraceLog"]


@dataclass(slots=True)
class WriteTrace:
    """Lifecycle of a single write operation."""

    operation_id: int
    key: str
    version: Version
    coordinator: str
    started_ms: float
    #: Per-replica arrival time of the write message (the W leg), by node id.
    replica_arrivals_ms: dict[str, float] = field(default_factory=dict)
    #: Per-replica acknowledgement arrival time at the coordinator (W + A legs).
    ack_arrivals_ms: dict[str, float] = field(default_factory=dict)
    #: Time the coordinator had collected W acknowledgements (commit), if ever.
    committed_ms: Optional[float] = None
    #: Replicas whose write message was dropped (failure or partition).
    dropped_replicas: set[str] = field(default_factory=set)

    @property
    def committed(self) -> bool:
        """True when the coordinator received its write quorum."""
        return self.committed_ms is not None

    @property
    def commit_latency_ms(self) -> Optional[float]:
        """Commit (write operation) latency, or ``None`` for uncommitted writes."""
        if self.committed_ms is None:
            return None
        return self.committed_ms - self.started_ms

    def arrival_offsets_from_commit(self) -> dict[str, float]:
        """Per-replica arrival time relative to commit (negative = before commit)."""
        if self.committed_ms is None:
            return {}
        return {
            replica: arrival - self.committed_ms
            for replica, arrival in self.replica_arrivals_ms.items()
        }


@dataclass(slots=True)
class ReadTrace:
    """Lifecycle of a single read operation."""

    operation_id: int
    key: str
    coordinator: str
    started_ms: float
    #: The first R responses (node id → version returned, None when replica was empty).
    quorum_responses: dict[str, Optional[Version]] = field(default_factory=dict)
    #: Responses that arrived after the operation already returned.
    late_responses: dict[str, Optional[Version]] = field(default_factory=dict)
    #: Per-replica response arrival time at the coordinator (R + S legs).
    response_arrivals_ms: dict[str, float] = field(default_factory=dict)
    #: Version the coordinator returned to the client (None = key not found).
    returned_version: Optional[Version] = None
    completed_ms: Optional[float] = None
    timed_out: bool = False
    #: Number of read-repair pushes this read triggered (0 when disabled).
    repairs_issued: int = 0

    @property
    def completed(self) -> bool:
        """True when the coordinator assembled a read quorum before timing out."""
        return self.completed_ms is not None and not self.timed_out

    @property
    def latency_ms(self) -> Optional[float]:
        """Read operation latency, or ``None`` for timed-out reads."""
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.started_ms


@dataclass
class TraceLog:
    """Accumulates traces for a simulation run and answers staleness queries.

    Query results (sort orders, per-key commit indexes) are cached and
    invalidated whenever a trace is recorded or mutated through the narrow
    ``begin_*``/``note_*`` API, so repeated analysis passes pay for sorting
    and index building exactly once per log state.
    """

    writes: list[WriteTrace] = field(default_factory=list)
    reads: list[ReadTrace] = field(default_factory=list)
    #: Total write traces examined while (re)building per-key commit indexes.
    #: Regression tests assert repeated queries do not rescan the log.
    index_scans: int = field(default=0, repr=False, compare=False)
    _mutations: int = field(default=0, repr=False, compare=False)
    _cache_token: tuple = field(default=(-1, -1, -1), repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def record_write(self, trace: WriteTrace) -> None:
        """Append a write trace."""
        self.writes.append(trace)
        self._mutations += 1

    def record_read(self, trace: ReadTrace) -> None:
        """Append a read trace."""
        self.reads.append(trace)
        self._mutations += 1

    # ------------------------------------------------------------------
    # Narrow recording API (shared with the columnar backend).
    # ------------------------------------------------------------------
    def begin_write(
        self,
        operation_id: int,
        key: str,
        version: Version,
        coordinator: str,
        started_ms: float,
    ) -> WriteTrace:
        """Open a write trace; the returned reference is the trace itself."""
        trace = WriteTrace(
            operation_id=operation_id,
            key=key,
            version=version,
            coordinator=coordinator,
            started_ms=started_ms,
        )
        self.writes.append(trace)
        self._mutations += 1
        return trace

    def note_write_arrival(self, ref: WriteTrace, node_id: str, time_ms: float) -> None:
        """Record the write message reaching a replica (the W leg)."""
        ref.replica_arrivals_ms[node_id] = time_ms
        self._mutations += 1

    def note_write_ack(self, ref: WriteTrace, node_id: str, time_ms: float) -> None:
        """Record a replica acknowledgement reaching the coordinator (W + A legs)."""
        ref.ack_arrivals_ms[node_id] = time_ms
        self._mutations += 1

    def note_write_commit(self, ref: WriteTrace, time_ms: float) -> None:
        """Record the coordinator assembling its write quorum."""
        ref.committed_ms = time_ms
        self._mutations += 1

    def note_write_drop(self, ref: WriteTrace, node_id: str) -> None:
        """Record a write message dropped on the way to a replica."""
        ref.dropped_replicas.add(node_id)
        self._mutations += 1

    def write_view(self, ref: WriteTrace) -> WriteTrace:
        """The trace behind a write reference (the reference itself here)."""
        return ref

    def begin_read(
        self, operation_id: int, key: str, coordinator: str, started_ms: float
    ) -> ReadTrace:
        """Open a read trace; the returned reference is the trace itself."""
        trace = ReadTrace(
            operation_id=operation_id,
            key=key,
            coordinator=coordinator,
            started_ms=started_ms,
        )
        self.reads.append(trace)
        self._mutations += 1
        return trace

    def note_read_reply(
        self,
        ref: ReadTrace,
        node_id: str,
        time_ms: float,
        version: Optional[Version],
        in_quorum: bool,
    ) -> None:
        """Record one replica response: its arrival and the version it carried.

        Equivalent to :meth:`note_read_response` followed by
        :meth:`note_read_quorum` (``in_quorum``) or :meth:`note_read_late`.
        """
        ref.response_arrivals_ms[node_id] = time_ms
        if in_quorum:
            ref.quorum_responses[node_id] = version
        else:
            ref.late_responses[node_id] = version
        self._mutations += 1

    def note_read_response(self, ref: ReadTrace, node_id: str, time_ms: float) -> None:
        """Record a replica response reaching the coordinator (R + S legs)."""
        ref.response_arrivals_ms[node_id] = time_ms
        self._mutations += 1

    def note_read_quorum(
        self, ref: ReadTrace, node_id: str, version: Optional[Version]
    ) -> None:
        """Record a response counted among the first R."""
        ref.quorum_responses[node_id] = version
        self._mutations += 1

    def note_read_late(
        self, ref: ReadTrace, node_id: str, version: Optional[Version]
    ) -> None:
        """Record a response that arrived after the read already returned."""
        ref.late_responses[node_id] = version
        self._mutations += 1

    def note_read_complete(
        self, ref: ReadTrace, version: Optional[Version], time_ms: float
    ) -> None:
        """Record the read returning ``version`` to the client at ``time_ms``."""
        ref.returned_version = version
        ref.completed_ms = time_ms
        self._mutations += 1

    def note_read_timeout(self, ref: ReadTrace) -> None:
        """Record the read giving up before assembling R responses."""
        ref.timed_out = True
        self._mutations += 1

    def note_read_repair(self, ref: ReadTrace) -> None:
        """Record one read-repair push triggered by this read."""
        ref.repairs_issued += 1
        self._mutations += 1

    def read_view(self, ref: ReadTrace) -> ReadTrace:
        """The trace behind a read reference (the reference itself here)."""
        return ref

    # ------------------------------------------------------------------
    # Cached query state.
    # ------------------------------------------------------------------
    def _query_cache(self) -> dict:
        token = (len(self.writes), len(self.reads), self._mutations)
        if token != self._cache_token:
            self._cache = {}
            self._cache_token = token
        return self._cache

    def _key_commit_index(self, key: str) -> tuple[list[float], list[Version], dict]:
        """(sorted commit times, prefix-max versions, version → time) for one key."""
        cache = self._query_cache()
        cached = cache.get(("key_index", key))
        if cached is None:
            committed = self.committed_writes(key)
            self.index_scans += len(self.writes)
            times = [trace.committed_ms for trace in committed]
            prefix_max: list[Version] = []
            best: Optional[Version] = None
            for trace in committed:
                if best is None or trace.version > best:
                    best = trace.version
                prefix_max.append(best)
            version_times = {trace.version: trace.committed_ms for trace in committed}
            cached = (times, prefix_max, version_times)
            cache[("key_index", key)] = cached
        return cached

    # ------------------------------------------------------------------
    # Queries used by the analysis package.
    # ------------------------------------------------------------------
    def committed_writes(self, key: str | None = None) -> list[WriteTrace]:
        """All committed writes, optionally restricted to one key, in commit order."""
        cache = self._query_cache()
        cached = cache.get(("committed", key))
        if cached is None:
            selected = [
                trace
                for trace in self.writes
                if trace.committed and (key is None or trace.key == key)
            ]
            selected.sort(key=lambda trace: trace.committed_ms)  # type: ignore[arg-type, return-value]
            cache[("committed", key)] = cached = selected
        return list(cached)

    def completed_reads(self, key: str | None = None) -> list[ReadTrace]:
        """All completed reads, optionally restricted to one key, in start order."""
        cache = self._query_cache()
        cached = cache.get(("reads", key))
        if cached is None:
            selected = [
                trace
                for trace in self.reads
                if trace.completed and (key is None or trace.key == key)
            ]
            selected.sort(key=lambda trace: trace.started_ms)
            cache[("reads", key)] = cached = selected
        return list(cached)

    def latest_committed_version_before(self, key: str, time_ms: float) -> Optional[Version]:
        """The newest version of ``key`` whose commit time is <= ``time_ms``."""
        times, prefix_max, _ = self._key_commit_index(key)
        position = bisect_right(times, time_ms)
        if position == 0:
            return None
        return prefix_max[position - 1]

    def commit_time_of(self, key: str, version: Version) -> Optional[float]:
        """Commit time of a specific version, or ``None`` if it never committed."""
        _, _, version_times = self._key_commit_index(key)
        return version_times.get(version)

    def clear(self) -> None:
        """Drop all recorded traces."""
        self.writes.clear()
        self.reads.clear()
        self._mutations += 1
