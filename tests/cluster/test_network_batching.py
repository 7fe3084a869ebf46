"""Tests for the network's batched draw buffers (loss, partitions, determinism).

The contract under test (see :mod:`repro.cluster.sampling`):

* draws are consumed strictly in request order by delivered messages;
* delivery decisions never touch a latency buffer — a dropped message
  consumes exactly one loss draw and zero latency draws;
* fixed seed + fixed batch size => bit-for-bit reproducible runs;
* ``draw_batch_size=1`` reproduces the legacy per-message sampling stream
  (``tests/cluster/test_golden_traces.py`` pins whole runs of it).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import Network
from repro.cluster.sampling import LatencyDrawBuffer, UniformDrawBuffer
from repro.cluster.store import DynamoCluster
from repro.cluster.client import WorkloadRunner
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.composite import PerReplicaLatency
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload


def _network(seed: int, batch_size: int = 64, loss: float = 0.0) -> Network:
    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
    )
    return Network(
        distributions=distributions,
        rng=np.random.default_rng(seed),
        replica_slots={f"n{i}": i for i in range(3)},
        loss_probability=loss,
        draw_batch_size=batch_size,
    )


class TestDrawBuffers:
    def test_buffer_serves_samples_in_order(self):
        distribution = ExponentialLatency.from_mean(5.0)
        buffer = LatencyDrawBuffer(distribution, np.random.default_rng(3), 16)
        expected = distribution.sample(16, np.random.default_rng(3))
        got = [buffer.draw() for _ in range(16)]
        assert got == pytest.approx(list(expected))
        assert buffer.refills == 1

    def test_refill_happens_exactly_at_batch_boundary(self):
        buffer = LatencyDrawBuffer(
            ExponentialLatency.from_mean(5.0), np.random.default_rng(0), 8
        )
        for index in range(20):
            buffer.draw()
            assert buffer.refills == index // 8 + 1

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LatencyDrawBuffer(
                ExponentialLatency.from_mean(5.0), np.random.default_rng(0), 0
            )
        with pytest.raises(ConfigurationError):
            UniformDrawBuffer(np.random.default_rng(0), -1)

    def test_uniform_buffer_matches_generator_stream(self):
        buffer = UniformDrawBuffer(np.random.default_rng(9), 8)
        expected = np.random.default_rng(9).random(8)
        assert [buffer.draw() for _ in range(8)] == pytest.approx(list(expected))


class TestNetworkBatching:
    def test_legs_sharing_a_distribution_share_one_buffer(self):
        # write_specialised aliases A=R=S to one object: its buffer serves
        # those legs' draws interleaved in request order.
        network = _network(seed=5, batch_size=32)
        other = network.distributions.a
        assert network.distributions.r is other and network.distributions.s is other
        expected = iter(other.sample(32, np.random.default_rng(5)))
        assert network.ack_delay("n0") == pytest.approx(next(expected))
        assert network.read_delay("n1") == pytest.approx(next(expected))
        assert network.response_delay("n2") == pytest.approx(next(expected))
        assert network.ack_delay("n2") == pytest.approx(next(expected))

    def test_batch_size_one_reproduces_legacy_per_draw_stream(self):
        network = _network(seed=11, batch_size=1)
        rng = np.random.default_rng(11)
        w = network.distributions.w
        other = network.distributions.a
        # Interleave legs exactly as a write+read would; the legacy path drew
        # sample(1, rng) per message at these same points.
        assert network.write_delay("n0") == pytest.approx(float(w.sample(1, rng)[0]))
        assert network.ack_delay("n0") == pytest.approx(float(other.sample(1, rng)[0]))
        assert network.read_delay("n1") == pytest.approx(float(other.sample(1, rng)[0]))
        assert network.write_delay("n2") == pytest.approx(float(w.sample(1, rng)[0]))

    def test_dropped_messages_consume_no_latency_draws(self):
        # Replica n1's messages are partitioned away; the delays served to
        # n0 and n2 must be exactly the first two values of the stream — the
        # dropped message shifts consumption, it does not burn a draw.
        baseline = _network(seed=7, batch_size=16)
        first, second = baseline.write_delay("n0"), baseline.write_delay("n1")

        partitioned = _network(seed=7, batch_size=16)
        partitioned.partition("coordinator-0", "n1")
        assert partitioned.delivers("coordinator-0", "n0")
        got_first = partitioned.write_delay("n0")
        assert not partitioned.delivers("coordinator-0", "n1")
        assert partitioned.delivers("coordinator-0", "n2")
        got_second = partitioned.write_delay("n2")
        assert (got_first, got_second) == (first, second)
        assert partitioned.dropped_messages == 1

    def test_loss_draws_come_from_a_dedicated_buffer(self):
        network = _network(seed=13, batch_size=8, loss=0.5)
        for _ in range(20):
            network.delivers("a", "b")
        # Loss decisions refilled their own buffer; no latency buffer exists
        # yet, so no latency draw was consumed by delivery decisions.
        assert network.draw_refills == 0
        assert network._loss_buffer is not None
        assert network._loss_buffer.refills >= 1
        assert network.dropped_messages > 0

    def test_fixed_seed_and_batch_size_are_deterministic(self):
        first = _network(seed=21, batch_size=16, loss=0.2)
        second = _network(seed=21, batch_size=16, loss=0.2)
        for _ in range(50):
            assert first.delivers("a", "b") == second.delivers("a", "b")
            assert first.write_delay("n0") == second.write_delay("n0")
        assert first.dropped_messages == second.dropped_messages

    def test_per_replica_distributions_get_separate_buffers(self):
        local = ExponentialLatency.from_mean(1.0, name="local")
        remote = ExponentialLatency.from_mean(80.0, name="remote")
        per_replica = PerReplicaLatency(replicas=(local, remote, remote))
        distributions = WARSDistributions(
            w=per_replica, a=local, r=local, s=local, name="wan-ish"
        )
        network = Network(
            distributions=distributions,
            rng=np.random.default_rng(2),
            replica_slots={"n0": 0, "n1": 1, "n2": 2},
            draw_batch_size=16,
        )
        # Slot 0 draws come from `local`'s stream, untouched by slot-1 draws.
        # The local buffer refills first (slot 0 is drawn first), so its
        # batch precedes the remote one on the shared generator's stream.
        probe = np.random.default_rng(2)
        expected_local = iter(local.sample(16, probe))
        expected_remote = iter(remote.sample(16, probe))
        assert network.write_delay("n0") == pytest.approx(next(expected_local))
        # Slots 1 and 2 alias the same `remote` object and share its buffer,
        # consuming that stream in request order.
        assert network.write_delay("n1") == pytest.approx(next(expected_remote))
        assert network.write_delay("n0") == pytest.approx(next(expected_local))
        assert network.write_delay("n2") == pytest.approx(next(expected_remote))

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            _network(seed=0, batch_size=0)


class TestDrawTables:
    """Per-(leg, replica) draw sources, resolved once and indexed by hot paths."""

    def test_sources_are_resolved_once_and_match_the_delay_methods(self):
        network = _network(seed=5, batch_size=16)
        twin = _network(seed=5, batch_size=16)
        source = network.write_draws["n0"]
        assert network.write_draws["n0"] is source
        assert list(network.write_draws) == ["n0"]
        requests = [("write", "n0"), ("ack", "n1"), ("read", "n2"), ("response", "n0")] * 10
        for leg, replica in requests:
            drawn = getattr(network, f"{leg}_draws")[replica]()
            assert drawn == getattr(twin, f"{leg}_delay")(replica)
        assert network.draws_consumed == twin.draws_consumed == len(requests)

    def test_unresolvable_replica_raises_and_is_not_cached(self):
        local = ExponentialLatency.from_mean(1.0)
        distributions = WARSDistributions(
            w=PerReplicaLatency(replicas=(local, local, local)), a=local, r=local, s=local
        )
        network = Network(
            distributions=distributions,
            rng=np.random.default_rng(0),
            replica_slots={"n0": 0},
        )
        with pytest.raises(ConfigurationError):
            network.write_draws["n9"]
        assert "n9" not in network.write_draws
        assert network.ack_draws["n9"]() > 0.0  # IID legs need no slot

    def test_may_drop_follows_loss_and_partitions(self):
        network = _network(seed=0)
        assert network.may_drop is False
        network.partition("c", "n0")
        network.partition("c", "n1")
        network.heal("c", "n0")
        assert network.may_drop is True
        network.heal("c", "n1")
        assert network.may_drop is False
        network.partition("c", "n2")
        network.heal_all()
        assert network.may_drop is False
        lossy = _network(seed=0, loss=0.1)
        assert lossy.may_drop is True
        lossy.partition("c", "n0")
        lossy.heal_all()
        assert lossy.may_drop is True

    def test_network_is_freed_by_reference_counting(self):
        network = _network(seed=0)
        for leg in ("write", "ack", "read", "response"):
            getattr(network, f"{leg}_delay")("n0")
        alive = weakref.ref(network)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del network
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


def _trace_fingerprint(cluster: DynamoCluster) -> tuple:
    writes = tuple(
        (trace.started_ms, trace.committed_ms, trace.version.timestamp)
        for trace in cluster.trace_log.writes
    )
    reads = tuple(
        (
            trace.started_ms,
            trace.completed_ms,
            None if trace.returned_version is None else trace.returned_version.timestamp,
        )
        for trace in cluster.trace_log.reads
    )
    return writes, reads


def _run_cluster(seed: int, **kwargs) -> DynamoCluster:
    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
    )
    cluster = DynamoCluster(
        config=ReplicaConfig(n=3, r=1, w=1),
        distributions=distributions,
        rng=seed,
        **kwargs,
    )
    operations = validation_workload(
        key="k", writes=40, write_interval_ms=100.0, read_offsets_ms=(1.0, 5.0, 20.0)
    )
    WorkloadRunner(cluster).run(operations)
    return cluster


class TestEndToEndDeterminism:
    def test_lossy_batched_runs_are_reproducible(self):
        first = _run_cluster(3, loss_probability=0.1)
        second = _run_cluster(3, loss_probability=0.1)
        assert _trace_fingerprint(first) == _trace_fingerprint(second)
        assert first.network.dropped_messages == second.network.dropped_messages

    def test_batch_size_changes_stream_but_not_statistics(self):
        # Different batch sizes give different (but statistically equivalent)
        # traces; this pins that they are *expected* to differ, so equality
        # tests elsewhere must hold batch size fixed.
        small = _run_cluster(23, draw_batch_size=2)
        large = _run_cluster(23, draw_batch_size=4096)
        assert _trace_fingerprint(small) != _trace_fingerprint(large)
        assert len(small.trace_log.reads) == len(large.trace_log.reads)


#: Endpoint pool for the churn property test: the original replicas plus
#: nodes that join mid-run.  The i.i.d. write distribution serves any node
#: name, matching how churned clusters draw for joiners without a slot.
_CHURN_NODES = ("n0", "n1", "n2", "joiner-a", "joiner-b")

_delivery_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(_CHURN_NODES) - 1), st.booleans()),
    min_size=1,
    max_size=40,
)


class TestDroppedDrawAccountingUnderChurn:
    """Dropped messages consume zero latency draws, even as nodes come and go.

    The property generalises ``test_dropped_messages_consume_no_latency_draws``
    to arbitrary partition/heal interleavings over a churned endpoint pool:
    whatever subset of messages is dropped, the delivered messages' delays are
    exactly the prefix of the loss-free stream, in order.
    """

    @given(plan=_delivery_plans, seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_delivered_delays_are_the_loss_free_prefix(self, plan, seed):
        baseline = _network(seed=seed, batch_size=16)
        expected = [
            baseline.write_delay(_CHURN_NODES[node]) for node, dropped in plan if not dropped
        ]

        network = _network(seed=seed, batch_size=16)
        delivered_delays = []
        for node_index, dropped in plan:
            node = _CHURN_NODES[node_index]
            if dropped:
                network.partition("coordinator-0", node)
                assert not network.delivers("coordinator-0", node)
                network.heal("coordinator-0", node)
            else:
                assert network.delivers("coordinator-0", node)
                delivered_delays.append(network.write_delay(node))

        assert delivered_delays == expected
        assert network.dropped_messages == sum(1 for _, dropped in plan if dropped)

    def test_lossy_churned_rebalancing_runs_are_reproducible(self):
        """Mid-run membership churn (ring rebalancing) plus message loss stays
        deterministic: same seed, same trace, same dropped count."""

        def churned(seed: int) -> DynamoCluster:
            distributions = WARSDistributions.write_specialised(
                write=ExponentialLatency.from_mean(20.0),
                other=ExponentialLatency.from_mean(10.0),
            )
            cluster = DynamoCluster(
                config=ReplicaConfig(n=3, r=1, w=1),
                distributions=distributions,
                rng=seed,
                node_count=5,
                loss_probability=0.1,
            )
            simulator = cluster.simulator
            simulator.schedule_at(
                1_500.0, lambda: cluster.membership.add_node("node-joiner"), label="join"
            )
            simulator.schedule_at(
                2_500.0, lambda: cluster.membership.remove_node("node-4"), label="leave"
            )
            operations = validation_workload(
                key="k", writes=40, write_interval_ms=100.0, read_offsets_ms=(1.0, 5.0, 20.0)
            )
            WorkloadRunner(cluster).run(operations)
            return cluster

        first = churned(31)
        second = churned(31)
        assert _trace_fingerprint(first) == _trace_fingerprint(second)
        assert first.network.dropped_messages == second.network.dropped_messages
        assert first.network.draw_refills == second.network.draw_refills
        assert first.membership.generation == second.membership.generation == 2
        # The churn actually rebalanced: the joiner is live, node-4 is gone.
        assert first.membership.node("node-joiner") is not None
        with pytest.raises(ConfigurationError):
            first.membership.node("node-4")
