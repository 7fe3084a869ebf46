"""Client sessions and workload drivers for the cluster simulator.

:class:`ClientSession` issues synchronous operations against a cluster while
tracking the session guarantees discussed in §3.2 (monotonic reads,
read-your-writes), so experiments can measure how often partial quorums
violate them in practice.  :class:`WorkloadRunner` schedules an entire
generated workload (see :mod:`repro.workloads`) onto the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from repro.cluster.coordinator import ReadHandle, WriteHandle
from repro.cluster.store import DynamoCluster
from repro.cluster.versioning import Version
from repro.exceptions import WorkloadError
from repro.workloads.operations import Operation, OperationKind

__all__ = ["SessionStats", "ClientSession", "WorkloadRunner"]


@dataclass
class SessionStats:
    """Session-guarantee accounting for one client."""

    reads: int = 0
    writes: int = 0
    monotonic_violations: int = 0
    read_your_writes_violations: int = 0
    empty_reads: int = 0

    @property
    def monotonic_violation_rate(self) -> float:
        """Fraction of reads that observed older data than a previous read."""
        return self.monotonic_violations / self.reads if self.reads else 0.0

    @property
    def read_your_writes_violation_rate(self) -> float:
        """Fraction of reads that missed this session's own latest write."""
        return self.read_your_writes_violations / self.reads if self.reads else 0.0


class ClientSession:
    """A single client issuing synchronous operations against one coordinator.

    The session pins a coordinator (the common "sticky client" deployment) and
    tracks, per key, the newest version it has read and the newest version it
    has written, to measure monotonic-reads and read-your-writes violations.
    """

    def __init__(self, cluster: DynamoCluster, session_id: str = "client") -> None:
        self._cluster = cluster
        self.session_id = session_id
        self._coordinator = cluster.coordinators[
            hash(session_id) % len(cluster.coordinators)
        ]
        self._last_read_version: dict[str, Version] = {}
        self._last_written_version: dict[str, Version] = {}
        self.stats = SessionStats()

    def write(self, key: str, value: object) -> WriteHandle:
        """Write through this session's coordinator and record the version written."""
        handle = self._cluster.write(key, value, coordinator=self._coordinator)
        self.stats.writes += 1
        if handle.committed:
            self._last_written_version[key] = handle.trace.version
        return handle

    def read(self, key: str) -> ReadHandle:
        """Read through this session's coordinator and update session-guarantee stats."""
        handle = self._cluster.read(key, coordinator=self._coordinator)
        self.stats.reads += 1
        observed: Optional[Version] = handle.trace.returned_version

        if observed is None:
            self.stats.empty_reads += 1

        previous = self._last_read_version.get(key)
        if previous is not None and (observed is None or observed < previous):
            self.stats.monotonic_violations += 1

        own_write = self._last_written_version.get(key)
        if own_write is not None and (observed is None or observed < own_write):
            self.stats.read_your_writes_violations += 1

        if observed is not None and (previous is None or observed > previous):
            self._last_read_version[key] = observed
        return handle


#: Operations fed onto the event queue per feeder step (see
#: :meth:`WorkloadRunner.run`).  Feeding lazily keeps the heap small — a few
#: in-flight operations instead of the whole workload — which matters because
#: every heap sift costs O(log heap-size) per event at paper-scale counts.
FEED_CHUNK_OPERATIONS = 512


@dataclass
class WorkloadRunner:
    """Schedules a generated operation stream onto a cluster and runs it.

    The runner is fire-and-forget: every operation's trace is recorded in the
    cluster's :class:`~repro.cluster.tracelog.ColumnarTraceLog`, which the
    analysis package consumes afterwards.
    """

    cluster: DynamoCluster
    scheduled_operations: int = field(default=0, init=False)

    def schedule(self, operations: Iterable[Operation]) -> int:
        """Schedule every operation at its start time; returns the count scheduled."""
        count = 0
        now = self.cluster.now_ms  # scheduling runs no events, so the clock stays put
        for operation in operations:
            if operation.start_ms < now:
                raise WorkloadError(
                    f"operation at {operation.start_ms} ms is in the simulator's past "
                    f"(now = {now} ms)"
                )
            if operation.kind is OperationKind.WRITE:
                self.cluster.schedule_write(operation.key, operation.value, operation.start_ms)
            else:
                self.cluster.schedule_read(operation.key, operation.start_ms)
            count += 1
        self.scheduled_operations += count
        return count

    def _feed(self, operations: list[Operation], start: int) -> None:
        """Schedule one chunk of ``operations[start:]`` and a continuation.

        The continuation fires at the first start time beyond the chunk, so at
        any moment the event queue holds at most one chunk of future
        operations plus the in-flight messages.  Chunk boundaries never split
        a group of equal-start-time operations, preserving their relative
        order exactly as eager scheduling would.
        """
        end = start + FEED_CHUNK_OPERATIONS
        total = len(operations)
        if end < total:
            while end < total and (
                operations[end].start_ms == operations[end - 1].start_ms
            ):
                end += 1
        self.schedule(operations[start:end])
        if end < total:
            self.cluster.simulator.schedule_at_action(
                operations[end].start_ms, lambda: self._feed(operations, end)
            )

    def run(self, operations: Iterable[Operation], settle_ms: float = 1_000.0) -> None:
        """Schedule the workload, run it to completion, then let late messages settle.

        Operations are fed onto the event queue lazily in chunks of
        :data:`FEED_CHUNK_OPERATIONS` (sorted by start time, stable for ties)
        rather than all up front, bounding the heap size.  ``settle_ms`` keeps
        the simulation running past the last scheduled operation so in-flight
        acknowledgements and late read responses (which the staleness detector
        needs) are delivered.
        """
        operations = sorted(operations, key=attrgetter("start_ms"))
        if not operations:
            return
        self._feed(operations, 0)
        horizon = operations[-1].start_ms + settle_ms
        self.cluster.run(until_ms=horizon)
        # Drain anything still outstanding (e.g. slow tail messages).
        self.cluster.run()
