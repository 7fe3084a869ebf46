"""Unit tests for the struct-of-arrays trace log.

Pins the columnar pipeline's three contracts:

* the narrow ``begin_*``/``note_*`` recording API produces row views that
  expose exactly the recorded values;
* ``ColumnarTraceLog.merge`` concatenates columns in block order, so a merged
  sharded log answers every query exactly like the serial log;
* query caches (sort orders, per-key commit indexes) are invalidated by
  mutation.
"""

from __future__ import annotations

import repro.cluster.tracelog as tracelog_module
from repro.cluster.tracelog import ColumnarTraceLog
from repro.cluster.versioning import Version


def _record_workload(log) -> None:
    """Drive one small mixed workload through the narrow recording API."""
    w0 = log.begin_write(0, "alpha", Version(1, "c-0"), "c-0", 10.0)
    log.note_write_arrival(w0, "node-0", 12.0)
    log.note_write_arrival(w0, "node-1", 15.5)
    log.note_write_ack(w0, "node-0", 13.0)
    log.note_write_commit(w0, 13.0)
    log.note_write_drop(w0, "node-2")

    w1 = log.begin_write(1, "beta", Version(2, "c-1"), "c-1", 20.0)
    log.note_write_arrival(w1, "node-1", 24.0)
    # w1 never commits.

    w2 = log.begin_write(2, "alpha", Version(3, "c-0"), "c-0", 30.0)
    log.note_write_arrival(w2, "node-0", 31.0)
    log.note_write_ack(w2, "node-0", 32.0)
    log.note_write_commit(w2, 32.0)

    r0 = log.begin_read(3, "alpha", "c-0", 40.0)
    log.note_read_reply(r0, "node-0", 41.0, Version(3, "c-0"), True)
    log.note_read_complete(r0, Version(3, "c-0"), 41.0)
    log.note_read_reply(r0, "node-1", 43.0, Version(1, "c-0"), False)
    log.note_read_repair(r0)

    r1 = log.begin_read(4, "alpha", "c-1", 50.0)
    log.note_read_reply(r1, "node-2", 51.0, None, True)
    log.note_read_complete(r1, None, 51.0)

    r2 = log.begin_read(5, "beta", "c-0", 60.0)
    log.note_read_timeout(r2)


def _write_tuple(trace) -> tuple:
    return (
        trace.operation_id,
        trace.key,
        (trace.version.timestamp, trace.version.writer),
        trace.coordinator,
        trace.started_ms,
        trace.committed_ms,
        dict(trace.replica_arrivals_ms),
        dict(trace.ack_arrivals_ms),
        set(trace.dropped_replicas),
        trace.committed,
        trace.commit_latency_ms,
        trace.arrival_offsets_from_commit(),
    )


def _read_tuple(trace) -> tuple:
    return (
        trace.operation_id,
        trace.key,
        trace.coordinator,
        trace.started_ms,
        dict(trace.quorum_responses),
        dict(trace.late_responses),
        dict(trace.response_arrivals_ms),
        trace.returned_version,
        trace.completed_ms,
        trace.timed_out,
        trace.repairs_issued,
        trace.completed,
        trace.latency_ms,
    )


def _log_tuples(log) -> tuple:
    return (
        tuple(_write_tuple(t) for t in log.writes),
        tuple(_read_tuple(t) for t in log.reads),
    )


#: ``_log_tuples`` of the log ``_record_workload`` builds.
RECORDED_ROWS = (
    (
        (0, "alpha", (1, "c-0"), "c-0", 10.0, 13.0, {"node-0": 12.0, "node-1": 15.5},
         {"node-0": 13.0}, {"node-2"}, True, 3.0, {"node-0": -1.0, "node-1": 2.5}),
        (1, "beta", (2, "c-1"), "c-1", 20.0, None, {"node-1": 24.0}, {}, set(), False,
         None, {}),
        (2, "alpha", (3, "c-0"), "c-0", 30.0, 32.0, {"node-0": 31.0}, {"node-0": 32.0},
         set(), True, 2.0, {"node-0": -1.0}),
    ),
    (
        (3, "alpha", "c-0", 40.0, {"node-0": Version(3, "c-0")},
         {"node-1": Version(1, "c-0")}, {"node-0": 41.0, "node-1": 43.0},
         Version(3, "c-0"), 41.0, False, 1, True, 1.0),
        (4, "alpha", "c-1", 50.0, {"node-2": None}, {}, {"node-2": 51.0}, None, 51.0,
         False, 0, True, 1.0),
        (5, "beta", "c-0", 60.0, {}, {}, {}, None, None, True, 0, False, None),
    ),
)


class TestNarrowApiEquivalence:
    """The scalar recording calls and the row views agree field for field."""

    def test_row_views_expose_the_recorded_workload(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert _log_tuples(log) == RECORDED_ROWS

    def test_note_read_reply_invalidates_cached_views(self):
        log = ColumnarTraceLog()
        ref = log.begin_read(0, "k", "c-0", 0.0)
        log.note_read_reply(ref, "node-0", 1.0, Version(1, "c-0"), True)
        view = log.read_view(ref)
        assert view.response_arrivals_ms == {"node-0": 1.0}
        assert view.late_responses == {}
        log.note_read_reply(ref, "node-1", 2.0, Version(2, "c-0"), False)
        assert view.response_arrivals_ms == {"node-0": 1.0, "node-1": 2.0}
        assert view.quorum_responses == {"node-0": Version(1, "c-0")}
        assert view.late_responses == {"node-1": Version(2, "c-0")}

    def test_view_scalars_are_python_types(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        write = log.writes[0]
        assert type(write.operation_id) is int
        assert type(write.started_ms) is float
        assert type(write.committed) is bool
        read = log.reads[0]
        assert type(read.repairs_issued) is int
        assert type(read.timed_out) is bool

    def test_counts_and_uncommitted_sentinels(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.write_count == 3
        assert log.read_count == 3
        assert log.writes[1].committed_ms is None
        assert log.writes[1].commit_latency_ms is None
        assert log.writes[1].arrival_offsets_from_commit() == {}
        assert log.reads[1].returned_version is None
        assert log.reads[2].completed is False
        assert log.reads[2].latency_ms is None

    def test_clear_drops_rows_and_strings(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        log.clear()
        assert log.write_count == 0
        assert log.read_count == 0
        assert log.string_table() == []
        assert log.committed_writes() == []
        assert log.completed_reads() == []
        # The log is reusable after clear.
        _record_workload(log)
        assert log.write_count == 3

    def test_column_growth_past_initial_capacity(self):
        log = ColumnarTraceLog()
        for index in range(1_000):  # large enough to force repeated list growth
            ref = log.begin_write(index, "k", Version(index, "c"), "c", float(index))
            log.note_write_commit(ref, float(index) + 0.5)
        assert log.write_count == 1_000
        assert [t.operation_id for t in log.committed_writes("k")][:3] == [0, 1, 2]
        assert log.latest_committed_version_before("k", 1e9) == Version(999, "c")


class TestQueries:
    def test_committed_writes_in_commit_order(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        committed = log.committed_writes("alpha")
        assert [t.operation_id for t in committed] == [0, 2]
        assert [t.committed_ms for t in committed] == [13.0, 32.0]
        assert log.committed_writes("beta") == []
        assert log.committed_writes("missing") == []

    def test_completed_reads_in_start_order(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert [t.operation_id for t in log.completed_reads()] == [3, 4]
        assert [t.operation_id for t in log.completed_reads("alpha")] == [3, 4]
        assert log.completed_reads("beta") == []  # timed out

    def test_latest_committed_version_before(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.latest_committed_version_before("alpha", 12.9) is None
        assert log.latest_committed_version_before("alpha", 13.0) == Version(1, "c-0")
        assert log.latest_committed_version_before("alpha", 99.0) == Version(3, "c-0")
        assert log.latest_committed_version_before("missing", 99.0) is None

    def test_commit_time_of(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert log.commit_time_of("alpha", Version(1, "c-0")) == 13.0
        assert log.commit_time_of("alpha", Version(3, "c-0")) == 32.0
        assert log.commit_time_of("alpha", Version(2, "c-1")) is None
        assert log.commit_time_of("alpha", Version(1, "never-seen")) is None

    def test_mutation_invalidates_cached_queries(self):
        log = ColumnarTraceLog()
        _record_workload(log)
        assert len(log.committed_writes("alpha")) == 2
        ref = log.begin_write(99, "alpha", Version(9, "c-0"), "c-0", 100.0)
        log.note_write_commit(ref, 105.0)
        assert len(log.committed_writes("alpha")) == 3
        assert log.latest_committed_version_before("alpha", 200.0) == Version(9, "c-0")

    def test_narrow_api_mutations_invalidate_caches(self):
        log = ColumnarTraceLog()
        ref = log.begin_write(0, "k", Version(1, "c"), "c", 0.0)
        assert log.committed_writes("k") == []
        log.note_write_commit(ref, 1.0)
        assert len(log.committed_writes("k")) == 1
        read = log.begin_read(1, "k", "c", 2.0)
        log.note_read_complete(read, Version(1, "c"), 3.0)
        assert len(log.completed_reads("k")) == 1
        log.note_read_timeout(read)
        assert log.completed_reads("k") == []

    def test_writer_sort_ranks_are_lexicographic(self):
        log = ColumnarTraceLog()
        # Intern in an order that differs from string order: "c-10" < "c-2".
        first = log.intern("c-2")
        second = log.intern("c-10")
        ranks = log.writer_sort_ranks()
        assert ranks[second] < ranks[first]



class TestQueryIndexing:
    """A key's commit index is built once per log state, not once per query."""

    def _filled_log(self, writes: int = 50) -> ColumnarTraceLog:
        log = ColumnarTraceLog()
        for index in range(writes):
            ref = log.begin_write(index, "hot", Version(index, "c"), "c", float(index))
            log.note_write_commit(ref, float(index) + 0.5)
        return log

    @staticmethod
    def _count_versions_built(monkeypatch) -> list[int]:
        """Count the ``Version`` objects the log builds; one per row an index scans."""
        built = [0]

        def counting_version(*args):
            built[0] += 1
            return Version(*args)

        monkeypatch.setattr(tracelog_module, "Version", counting_version)
        return built

    def test_repeated_version_queries_scan_the_log_once(self, monkeypatch):
        writes = 50
        log = self._filled_log(writes)
        built = self._count_versions_built(monkeypatch)
        for probe in range(200):
            log.latest_committed_version_before("hot", float(probe % writes))
            log.commit_time_of("hot", Version(probe % writes, "c"))
        # 400 queries, one index build: one Version per committed write.
        assert built[0] == writes

    def test_mutation_triggers_exactly_one_rebuild(self, monkeypatch):
        writes = 50
        log = self._filled_log(writes)
        built = self._count_versions_built(monkeypatch)
        log.latest_committed_version_before("hot", 10.0)
        assert built[0] == writes
        ref = log.begin_write(writes, "hot", Version(writes, "c"), "c", float(writes))
        log.note_write_commit(ref, float(writes) + 0.5)
        for _ in range(10):
            assert log.latest_committed_version_before("hot", 1e9) == Version(writes, "c")
        assert built[0] == writes + (writes + 1)

    def test_committed_writes_returns_fresh_lists(self):
        log = self._filled_log(5)
        first = log.committed_writes("hot")
        first.clear()  # callers may mutate their list...
        assert len(log.committed_writes("hot")) == 5  # ...without touching the log

    def test_row_orders_are_cached_until_the_next_mutation(self):
        log = self._filled_log(5)
        rows = log.committed_write_rows("hot")
        assert log.committed_write_rows("hot") is rows
        ref = log.begin_write(5, "hot", Version(5, "c"), "c", 5.0)
        log.note_write_commit(ref, 5.5)
        refreshed = log.committed_write_rows("hot")
        assert refreshed is not rows
        assert refreshed.tolist() == [0, 1, 2, 3, 4, 5]


class TestStoreTraceLog:
    def test_store_records_into_a_columnar_log(self):
        from repro.cluster.store import DynamoCluster
        from repro.core.quorum import ReplicaConfig
        from repro.latency.distributions import ExponentialLatency
        from repro.latency.production import WARSDistributions

        distributions = WARSDistributions.symmetric(ExponentialLatency.from_mean(1.0))
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), distributions)
        assert isinstance(cluster.trace_log, ColumnarTraceLog)
