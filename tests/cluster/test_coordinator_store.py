"""Unit tests for the coordinator protocol and the DynamoCluster facade."""

from __future__ import annotations

import gc

import pytest

from repro.analysis.validation import run_validation
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload


def constant_wars(w: float = 4.0, a: float = 1.0, r: float = 2.0, s: float = 3.0) -> WARSDistributions:
    """Deterministic WARS distributions for exact protocol assertions."""
    return WARSDistributions(
        w=ConstantLatency(w), a=ConstantLatency(a), r=ConstantLatency(r), s=ConstantLatency(s)
    )


class TestWritePath:
    def test_write_commits_after_w_acks(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 2), constant_wars(), rng=0)
        handle = cluster.write("key", "value")
        assert handle.committed
        # Commit latency = W delay + A delay (constant) = 5 ms.
        assert handle.trace.commit_latency_ms == pytest.approx(5.0)
        # All three replicas eventually receive the write; run out the queue.
        cluster.run()
        assert len(handle.trace.replica_arrivals_ms) == 3
        assert len(handle.trace.ack_arrivals_ms) == 3

    def test_write_trace_records_arrival_times(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(w=7.0), rng=0)
        handle = cluster.write("key", "value")
        cluster.run()
        for arrival in handle.trace.replica_arrivals_ms.values():
            assert arrival == pytest.approx(7.0)

    def test_versions_increase_across_writes(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        first = cluster.write("key", "v1")
        second = cluster.write("key", "v2")
        assert second.trace.version > first.trace.version

    def test_replicas_store_newest_version(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        cluster.write("key", "v1")
        second = cluster.write("key", "v2")
        cluster.run()
        for node in cluster.replicas_for("key"):
            assert node.version_of("key") == second.trace.version

    def test_write_with_failed_quorum_does_not_commit(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 2), constant_wars(), timeout_ms=50.0, rng=0)
        # Crash two replicas of the key: W=2 can never be reached.
        for node in cluster.replicas_for("key")[:2]:
            node.crash()
        handle = cluster.write("key", "value")
        assert handle.finished
        assert not handle.committed
        assert len(handle.trace.dropped_replicas) == 2

    def test_write_commits_despite_one_failure_when_w1(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        cluster.replicas_for("key")[0].crash()
        handle = cluster.write("key", "value")
        assert handle.committed


class TestReadPath:
    def test_read_returns_latest_committed_value(self):
        cluster = DynamoCluster(ReplicaConfig(3, 2, 2), constant_wars(), rng=0)
        write = cluster.write("key", "value")
        cluster.run()
        read = cluster.read("key")
        assert read.trace.returned_version == write.trace.version
        assert read.value is not None and read.value.value == "value"
        # Read latency = R delay + S delay = 5 ms.
        assert read.trace.latency_ms == pytest.approx(5.0)

    def test_read_of_missing_key_returns_none(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        read = cluster.read("absent")
        assert read.trace.completed
        assert read.trace.returned_version is None
        assert read.value is None

    def test_read_quorum_size_respected(self):
        cluster = DynamoCluster(ReplicaConfig(3, 2, 1), constant_wars(), rng=0)
        cluster.write("key", "value")
        cluster.run()
        read = cluster.read("key")
        assert len(read.trace.quorum_responses) == 2
        cluster.run()
        assert len(read.trace.late_responses) == 1

    def test_read_times_out_without_quorum(self):
        cluster = DynamoCluster(ReplicaConfig(3, 3, 1), constant_wars(), timeout_ms=50.0, rng=0)
        cluster.write("key", "value")
        cluster.run()
        cluster.replicas_for("key")[0].crash()
        read = cluster.read("key")
        assert read.trace.timed_out
        assert not read.trace.completed

    def test_voldemort_style_fanout_contacts_only_r_replicas(self):
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1), constant_wars(), read_fanout_all=False, rng=0
        )
        cluster.write("key", "value")
        cluster.run()
        read = cluster.read("key")
        cluster.run()
        assert len(read.trace.quorum_responses) == 1
        assert len(read.trace.late_responses) == 0


class TestReadRepairAndHints:
    def test_read_repair_pushes_newest_version_to_stale_replicas(self):
        # Slow write propagation: with W=1 only the fastest replica has the
        # value when the read happens; read repair should fix the others.
        distributions = WARSDistributions(
            w=ExponentialLatency.from_mean(50.0),
            a=ConstantLatency(0.1),
            r=ConstantLatency(0.1),
            s=ConstantLatency(0.1),
        )
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1), distributions, read_repair=True, rng=3
        )
        write = cluster.write("key", "value")
        read = cluster.read("key")
        cluster.run()
        assert read.trace.completed
        coordinator = cluster.coordinators[0]
        assert coordinator.repairs_sent >= 1
        for node in cluster.replicas_for("key"):
            assert node.version_of("key") == write.trace.version

    def test_hinted_handoff_counts_hints_for_crashed_replicas(self):
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1), constant_wars(), hinted_handoff=True, node_count=4, rng=0
        )
        victim = cluster.replicas_for("key")[1]
        victim.crash()
        cluster.write("key", "value")
        cluster.run()
        coordinator = cluster.coordinators[0]
        assert coordinator.hints_stored == 1
        assert coordinator.pending_hint_count == 1
        victim.recover()
        assert cluster.replay_hints() == 1
        cluster.run()
        assert victim.version_of("key") is not None
        assert coordinator.pending_hint_count == 0


class TestDynamoClusterFacade:
    def test_node_count_defaults_to_replication_factor(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        assert len(cluster.nodes) == 3

    def test_node_count_below_n_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), node_count=2)

    def test_invalid_coordinator_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), coordinator_count=0)

    def test_scheduled_operations_record_traces(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        cluster.schedule_write("key", "v1", at_ms=10.0)
        cluster.schedule_read("key", at_ms=50.0)
        cluster.run()
        assert len(cluster.trace_log.writes) == 1
        assert len(cluster.trace_log.reads) == 1
        assert cluster.trace_log.writes[0].started_ms == pytest.approx(10.0)
        assert cluster.trace_log.reads[0].started_ms == pytest.approx(50.0)

    def test_round_robin_coordinators(self):
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1), constant_wars(), coordinator_count=2, rng=0
        )
        first = cluster.write("a", 1)
        second = cluster.write("b", 2)
        assert first.trace.coordinator != second.trace.coordinator

    def test_operation_ids_count_per_cluster_across_coordinators(self):
        def ids(cluster: DynamoCluster) -> list[int]:
            handles = [cluster.write("a", 1), cluster.read("a"), cluster.write("b", 2)]
            return [handle.trace.operation_id for handle in handles]

        first = DynamoCluster(
            ReplicaConfig(3, 1, 1), constant_wars(), coordinator_count=2, rng=0
        )
        assert ids(first) == [1, 2, 3]
        # A later cluster in the same process numbers its operations afresh.
        second = DynamoCluster(
            ReplicaConfig(3, 1, 1), constant_wars(), coordinator_count=2, rng=0
        )
        assert ids(second) == [1, 2, 3]

    def test_replicas_for_returns_n_nodes(self):
        cluster = DynamoCluster(ReplicaConfig(3, 2, 2), constant_wars(), node_count=5, rng=0)
        assert len(cluster.replicas_for("some-key")) == 3

    def test_merkle_anti_entropy_controller_is_singleton(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        first = cluster.enable_merkle_anti_entropy(interval_ms=100.0)
        second = cluster.enable_merkle_anti_entropy(interval_ms=100.0)
        assert first is second
        assert cluster.anti_entropy is first
        first.stop()


def _unreachable_after(run) -> int:
    """Objects only the cyclic garbage collector could free once ``run`` returns."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class TestNoReferenceCycles:
    """Finished operations are freed by reference counting alone.

    A cancellable event must not keep its owner alive: an operation's timeout
    action closes over the operation's handle, which holds the event, so the
    event drops its action when cancelled and a fired timeout clears the
    handle's reference to its event.  Otherwise every operation leaves a
    cycle behind (about 66,000 unreachable objects per 1,000-write cell).
    """

    def test_validation_cell_leaves_no_cycles(self):
        distributions = WARSDistributions.write_specialised(
            write=ExponentialLatency.from_mean(20.0),
            other=ExponentialLatency.from_mean(10.0),
        )
        found = _unreachable_after(
            lambda: run_validation(
                distributions,
                ReplicaConfig(3, 1, 1),
                writes=1_000,
                write_interval_ms=200.0,
                prediction_trials=2_000,
                rng=0,
                workers=1,
            )
        )
        assert found < 100

    def test_timed_out_operations_leave_no_cycles(self):
        def run() -> None:
            cluster = DynamoCluster(
                ReplicaConfig(3, 1, 1), constant_wars(), timeout_ms=50.0, rng=0
            )
            for node in cluster.nodes:
                node.crash()
            WorkloadRunner(cluster).run(
                validation_workload(
                    key="key", writes=200, write_interval_ms=100.0, read_offsets_ms=(1.0, 10.0)
                )
            )
            assert all(trace.timed_out for trace in cluster.trace_log.reads)
            assert not any(trace.committed for trace in cluster.trace_log.writes)

        assert _unreachable_after(run) < 100

    def test_finished_operations_cancel_their_timeouts_and_drop_the_actions(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        coordinator = cluster.coordinators[0]
        write = coordinator.write("key", "value")
        write_timeout = write._timeout_event
        cluster.run()
        read = coordinator.read("key")
        read_timeout = read._timeout_event
        cluster.run()
        assert write.committed and read.trace.completed
        for timeout in (write_timeout, read_timeout):
            assert timeout.cancelled and timeout.action is None

    def test_fired_timeouts_clear_the_handle_reference(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), timeout_ms=50.0, rng=0)
        for node in cluster.nodes:
            node.crash()
        coordinator = cluster.coordinators[0]
        write = coordinator.write("key", "value")
        read = coordinator.read("key")
        assert write._timeout_event is not None and read._timeout_event is not None
        cluster.run()
        assert write.finished and not write.committed
        assert read.trace.timed_out
        assert write._timeout_event is None and read._timeout_event is None
