"""The Dynamo-style cluster facade.

:class:`DynamoCluster` wires together the simulator, membership, network,
coordinators, tracing, failure injection, and optional anti-entropy into one
object with a small API:

* synchronous ``write``/``read`` that advance simulated time until the
  operation finishes (convenient for examples and tests);
* ``schedule_write``/``schedule_read`` that enqueue operations at future
  simulated times (used by workload drivers and the validation experiments);
* ``run`` to drain the event queue.

This is the substitute for the instrumented Cassandra deployment used in the
paper's §5.2 validation: the same WARS latency distributions drive both this
simulator and the analytical Monte Carlo model, so measured and predicted
staleness can be compared directly.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.cluster.antientropy import MerkleAntiEntropy
from repro.cluster.coordinator import Coordinator, ReadHandle, WriteHandle
from repro.cluster.failures import FailureInjector
from repro.cluster.membership import Membership
from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.simulator import Simulator
from repro.cluster.staleness_detector import StalenessDetector
from repro.cluster.tracelog import ColumnarTraceLog
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.latency.production import WARSDistributions

__all__ = ["DynamoCluster"]


class DynamoCluster:
    """An in-process, discrete-event Dynamo-style replicated key-value store.

    Parameters
    ----------
    config:
        The (N, R, W) replication configuration.
    distributions:
        One-way message latency distributions (the WARS model inputs).
    node_count:
        Number of physical nodes; defaults to ``config.n`` (the paper's
        three-server validation cluster shape).  Must be at least ``config.n``.
    coordinator_count:
        Number of coordinator endpoints; operations round-robin across them.
    read_repair / hinted_handoff:
        Optional anti-entropy features (both off by default, matching the
        paper's conservative model).
    sloppy_quorum:
        When a home replica is down, redirect its write to the next healthy
        node on the ring and count that acknowledgement toward ``W`` (Dynamo's
        hinted-handoff write availability).  Off by default.
    read_fanout_all:
        ``True`` sends reads to all N replicas (Dynamo/Cassandra); ``False``
        sends to only R (Voldemort, §2.3).
    loss_probability:
        Independent per-message drop probability.
    draw_batch_size:
        Message latencies drawn per network-buffer refill (see
        :mod:`repro.cluster.sampling`); ``1`` reproduces the legacy
        one-numpy-call-per-message seed stream.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injecting gray
        failures and correlated latency bursts by modulating network delay
        draws (see :mod:`repro.faults`).  Draw accounting is unchanged, so
        sharded runs stay bit-for-bit deterministic.
    rng:
        Seed or generator controlling every random choice in the simulation.
    """

    def __init__(
        self,
        config: ReplicaConfig,
        distributions: WARSDistributions,
        node_count: int | None = None,
        coordinator_count: int = 1,
        read_repair: bool = False,
        hinted_handoff: bool = False,
        sloppy_quorum: bool = False,
        read_fanout_all: bool = True,
        loss_probability: float = 0.0,
        timeout_ms: float = 60_000.0,
        virtual_nodes: int = 64,
        draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
        fault_plan: FaultPlan | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if node_count is None:
            node_count = config.n
        if node_count < config.n:
            raise ConfigurationError(
                f"node count {node_count} is smaller than the replication factor {config.n}"
            )
        if coordinator_count < 1:
            raise ConfigurationError(
                f"coordinator count must be >= 1, got {coordinator_count}"
            )

        self.config = config
        self.distributions = distributions
        self.simulator = Simulator(rng=rng)
        node_ids = [f"node-{index}" for index in range(node_count)]
        self.membership = Membership(node_ids, virtual_nodes=virtual_nodes)
        self.network = Network(
            distributions=distributions,
            rng=self.simulator.rng,
            replica_slots={node_id: index for index, node_id in enumerate(node_ids)},
            loss_probability=loss_probability,
            draw_batch_size=draw_batch_size,
            fault_plan=fault_plan,
            clock=self.simulator.clock,
        )
        self.trace_log = ColumnarTraceLog()
        # One operation-id counter per cluster, so a cluster's ids depend
        # only on its own run (not on what else ran in the process).
        next_operation_id = itertools.count(1).__next__
        self.coordinators = [
            Coordinator(
                coordinator_id=f"coordinator-{index}",
                simulator=self.simulator,
                membership=self.membership,
                network=self.network,
                config=config,
                trace_log=self.trace_log,
                next_operation_id=next_operation_id,
                read_repair=read_repair,
                hinted_handoff=hinted_handoff,
                sloppy_quorum=sloppy_quorum,
                timeout_ms=timeout_ms,
                read_fanout_all=read_fanout_all,
            )
            for index in range(coordinator_count)
        ]
        self._single_coordinator = (
            self.coordinators[0] if coordinator_count == 1 else None
        )
        self.failure_injector = FailureInjector(self.simulator, self.membership)
        self.staleness_detector = StalenessDetector(self.trace_log)
        self._anti_entropy: Optional[MerkleAntiEntropy] = None
        self._next_coordinator = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[StorageNode]:
        """The cluster's storage nodes."""
        return list(self.membership.nodes.values())

    @property
    def now_ms(self) -> float:
        """Current simulated time."""
        return self.simulator.now_ms

    def node(self, node_id: str) -> StorageNode:
        """Look up one storage node."""
        return self.membership.node(node_id)

    def replicas_for(self, key: str) -> list[StorageNode]:
        """The preference list (N replicas) for ``key``."""
        return self.membership.preference_list(key, self.config.n)

    # ------------------------------------------------------------------
    # Coordinator selection.
    # ------------------------------------------------------------------
    def _pick_coordinator(self, coordinator: Coordinator | None = None) -> Coordinator:
        if coordinator is not None:
            return coordinator
        single = self._single_coordinator
        if single is not None:
            return single
        chosen = self.coordinators[self._next_coordinator % len(self.coordinators)]
        self._next_coordinator += 1
        return chosen

    # ------------------------------------------------------------------
    # Synchronous operations (advance simulated time until completion).
    # ------------------------------------------------------------------
    def write(
        self, key: str, value: object, coordinator: Coordinator | None = None
    ) -> WriteHandle:
        """Perform a write and advance the simulation until it commits or times out."""
        handle = self._pick_coordinator(coordinator).write(key, value)
        self._run_until_finished(handle)
        return handle

    def read(self, key: str, coordinator: Coordinator | None = None) -> ReadHandle:
        """Perform a read and advance the simulation until it completes or times out."""
        handle = self._pick_coordinator(coordinator).read(key)
        self._run_until_finished(handle)
        return handle

    def _run_until_finished(self, handle: WriteHandle | ReadHandle) -> None:
        steps = 0
        while not handle.finished:
            if not self.simulator.step():
                raise SimulationError(
                    "event queue drained before the operation finished; "
                    "this indicates a scheduling bug"
                )
            steps += 1
            if steps > 10_000_000:  # pragma: no cover - defensive guard
                raise SimulationError("operation did not finish within 10M events")

    # ------------------------------------------------------------------
    # Scheduled (asynchronous) operations for workload drivers.
    # ------------------------------------------------------------------
    def schedule_write(
        self,
        key: str,
        value: object,
        at_ms: float,
        coordinator: Coordinator | None = None,
    ) -> None:
        """Enqueue a write to start at simulated time ``at_ms``; its trace is recorded."""
        chosen = self._pick_coordinator(coordinator)
        if at_ms < self.simulator.clock.now_ms:
            raise SimulationError(
                f"cannot schedule an event in the past "
                f"(now={self.simulator.clock.now_ms}, at={at_ms})"
            )
        queue = self.simulator.queue
        queue.push_entry((float(at_ms), queue.next_sequence(), chosen.write, key, value))

    def schedule_read(
        self, key: str, at_ms: float, coordinator: Coordinator | None = None
    ) -> None:
        """Enqueue a read to start at simulated time ``at_ms``; its trace is recorded."""
        chosen = self._pick_coordinator(coordinator)
        if at_ms < self.simulator.clock.now_ms:
            raise SimulationError(
                f"cannot schedule an event in the past "
                f"(now={self.simulator.clock.now_ms}, at={at_ms})"
            )
        queue = self.simulator.queue
        queue.push_entry((float(at_ms), queue.next_sequence(), chosen.read, key))

    def run(self, until_ms: float | None = None) -> None:
        """Drain the event queue (optionally up to a simulated-time horizon)."""
        self.simulator.run(until_ms)

    # ------------------------------------------------------------------
    # Optional subsystems.
    # ------------------------------------------------------------------
    def enable_merkle_anti_entropy(
        self, interval_ms: float = 1_000.0, pairs_per_round: int = 1
    ) -> MerkleAntiEntropy:
        """Turn on periodic Merkle-tree synchronisation and return its controller."""
        if self._anti_entropy is None:
            self._anti_entropy = MerkleAntiEntropy(
                simulator=self.simulator,
                membership=self.membership,
                network=self.network,
                interval_ms=interval_ms,
                pairs_per_round=pairs_per_round,
            )
        self._anti_entropy.start()
        return self._anti_entropy

    @property
    def anti_entropy(self) -> Optional[MerkleAntiEntropy]:
        """The Merkle anti-entropy controller, if enabled."""
        return self._anti_entropy

    def replay_hints(self) -> int:
        """Ask every coordinator to replay hints for replicas that have recovered."""
        replayed = 0
        for coordinator in self.coordinators:
            for node in self.membership.alive_nodes():
                replayed += coordinator.replay_hints(node)
        return replayed
