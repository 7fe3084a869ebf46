"""Read and write coordinators for the Dynamo-style store.

The coordinator implements the protocol shown in Figure 1 of the paper: every
operation is forwarded to all ``N`` replicas of the key, and the operation
returns to the client after the first ``W`` acknowledgements (writes) or ``R``
responses (reads).  Remaining messages keep flowing and are recorded as late
responses — exactly the behaviour that makes quorums "expand" and that the
asynchronous staleness detector (§4.3) exploits.

The coordinator is also where the optional anti-entropy hooks attach:

* **read repair** — after the last response for a read arrives, push the
  newest observed version to any replica that returned something older;
* **hinted handoff** — when a write message targets a crashed replica, hand
  the write to a fallback node that replays it on recovery.

Both are disabled by default, matching the paper's conservative assumptions
(§4.2), and can be switched on for ablation experiments.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.membership import Membership
from repro.cluster.network import Network
from repro.cluster.node import StorageNode
from repro.cluster.simulator import Simulator
from repro.cluster.tracelog import ColumnarReadTrace, ColumnarTraceLog, ColumnarWriteTrace
from repro.cluster.versioning import LamportClock, VectorClock, VersionedValue, Version
from repro.core.quorum import ReplicaConfig
from repro.exceptions import SimulationError

__all__ = ["Coordinator", "WriteHandle", "ReadHandle"]


class WriteHandle:
    """Client-visible handle for an in-flight write.

    Holds the trace log and the write's row number rather than a trace
    object; :attr:`trace` builds a lazy row view on demand.
    """

    __slots__ = (
        "ref",
        "payload",
        "acks_received",
        "finished",
        "committed",
        "on_complete",
        "used_fallbacks",
        "_log",
        "_timeout_event",
    )

    def __init__(
        self,
        log: ColumnarTraceLog,
        ref: int,
        payload: VersionedValue,
        on_complete: Optional[Callable[[ColumnarWriteTrace], None]] = None,
    ) -> None:
        self._log = log
        #: The write's row in the trace log.
        self.ref = ref
        self.payload = payload
        self.acks_received = 0
        self.finished = False
        #: True once the write quorum acknowledged.
        self.committed = False
        self.on_complete = on_complete
        #: Fallback nodes already holding a sloppy-quorum copy for this write.
        self.used_fallbacks: set[str] = set()
        self._timeout_event: object = None

    @property
    def trace(self) -> ColumnarWriteTrace:
        """The write's trace, as a lazy row view."""
        return self._log.write_view(self.ref)


class ReadHandle:
    """Client-visible handle for an in-flight read.

    Like :class:`WriteHandle`, carries (log, row) instead of a trace
    object; quorum membership and the newest-version selection are tracked
    incrementally on the handle so the hot path never inspects trace state.
    """

    __slots__ = (
        "ref",
        "expected_responses",
        "responses",
        "finished",
        "value",
        "on_complete",
        "quorum_count",
        "_newest",
        "_log",
        "_timeout_event",
    )

    def __init__(
        self,
        log: ColumnarTraceLog,
        ref: int,
        expected_responses: int,
        on_complete: Optional[Callable[[ColumnarReadTrace], None]] = None,
    ) -> None:
        self._log = log
        #: The read's row in the trace log.
        self.ref = ref
        self.expected_responses = expected_responses
        self.responses: dict[str, Optional[VersionedValue]] = {}
        self.finished = False
        self.value: Optional[VersionedValue] = None
        self.on_complete = on_complete
        #: Responses counted toward the read quorum so far.
        self.quorum_count = 0
        self._newest: Optional[VersionedValue] = None
        self._timeout_event: object = None

    @property
    def trace(self) -> ColumnarReadTrace:
        """The read's trace, as a lazy row view."""
        return self._log.read_view(self.ref)

    @property
    def completed(self) -> bool:
        """True once the read quorum was assembled (and the op did not time out)."""
        return self.trace.completed


class Coordinator:
    """Coordinates quorum reads and writes for one logical client entry point."""

    def __init__(
        self,
        coordinator_id: str,
        simulator: Simulator,
        membership: Membership,
        network: Network,
        config: ReplicaConfig,
        trace_log: ColumnarTraceLog,
        next_operation_id: Callable[[], int],
        read_repair: bool = False,
        hinted_handoff: bool = False,
        sloppy_quorum: bool = False,
        timeout_ms: float = 60_000.0,
        read_fanout_all: bool = True,
    ) -> None:
        if timeout_ms <= 0:
            raise SimulationError(f"operation timeout must be positive, got {timeout_ms}")
        self.coordinator_id = coordinator_id
        self._simulator = simulator
        self._clock = simulator.clock
        # Message sends bypass Simulator.schedule: delays come from validated
        # latency distributions (non-negative by construction), so the hot
        # path pushes one pre-bound heap entry per message straight onto the
        # event queue, and draws each delay from the network's per-replica
        # source for the leg.
        self._push = simulator.queue.push_entry
        self._next_sequence = simulator.queue.next_sequence
        self._membership = membership
        self._network = network
        self._write_draws = network.write_draws
        self._ack_draws = network.ack_draws
        self._read_draws = network.read_draws
        self._response_draws = network.response_draws
        self._config = config
        self._r = config.r
        self._w = config.w
        self._trace_log = trace_log
        # The cluster's operation-id counter, shared by its coordinators.
        self._next_operation_id = next_operation_id
        # Bound narrow-API methods: recording happens with scalars through
        # one pre-bound call per lifecycle step.
        self._begin_write = trace_log.begin_write
        self._note_write_arrival = trace_log.note_write_arrival
        self._note_write_ack = trace_log.note_write_ack
        self._note_write_commit = trace_log.note_write_commit
        self._note_write_drop = trace_log.note_write_drop
        self._begin_read = trace_log.begin_read
        self._note_read_reply = trace_log.note_read_reply
        self._note_read_complete = trace_log.note_read_complete
        self._note_read_timeout = trace_log.note_read_timeout
        self._note_read_repair = trace_log.note_read_repair
        # Single-entry placement memo (validation workloads hammer one key);
        # guarded by the membership generation so ring changes invalidate it.
        self._pref_key: str | None = None
        self._pref_nodes: tuple[StorageNode, ...] = ()
        self._pref_generation = -1
        self._read_repair = read_repair
        self._hinted_handoff = hinted_handoff
        # Dynamo's "sloppy quorum": when a home replica is down, the write is
        # redirected to the next healthy node on the ring and that node's
        # acknowledgement counts toward W (availability over placement).
        self._sloppy_quorum = sloppy_quorum
        self._timeout_ms = timeout_ms
        # Dynamo sends reads to all N replicas; Voldemort sends to only R
        # (§2.3).  Staleness is unaffected but load and late responses differ.
        self._read_fanout_all = read_fanout_all
        self._lamport = LamportClock()
        self._clock_vector = VectorClock()
        self.repairs_sent = 0
        self.hints_stored = 0
        self.hints_replayed = 0
        #: Hints held on behalf of crashed replicas: node id → list of payloads.
        self._pending_hints: dict[str, list[VersionedValue]] = {}

    def _preference(self, key: str) -> tuple[StorageNode, ...]:
        """The key's N-replica preference list, memoised per coordinator."""
        membership = self._membership
        if key == self._pref_key and self._pref_generation == membership.generation:
            return self._pref_nodes
        nodes = membership.preference_nodes(key, self._config.n)
        self._pref_key = key
        self._pref_nodes = nodes
        self._pref_generation = membership.generation
        return nodes

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------
    def write(
        self,
        key: str,
        value: object,
        on_complete: Optional[Callable[[ColumnarWriteTrace], None]] = None,
    ) -> WriteHandle:
        """Issue a write: forward to all N replicas, commit after W acknowledgements."""
        now = self._clock.now_ms
        timestamp = self._lamport.tick()
        self._clock_vector = self._clock_vector.increment(self.coordinator_id)
        version = Version(timestamp=timestamp, writer=self.coordinator_id)
        payload = VersionedValue(
            key=key,
            value=value,
            version=version,
            vector_clock=self._clock_vector,
            write_started_ms=now,
        )
        operation_id = self._next_operation_id()
        ref = self._begin_write(operation_id, key, version, self.coordinator_id, now)
        handle = WriteHandle(self._trace_log, ref, payload, on_complete=on_complete)

        # Locals bound once; delivery is checked only when loss or
        # partitions are actually configured (delivery state can only change
        # between events, never inside this send loop).
        network = self._network
        push = self._push
        sequence = self._next_sequence
        draws = self._write_draws
        deliver = self._deliver_write
        lossy = network.may_drop
        for replica in self._preference(key):
            node_id = replica.node_id
            if lossy and not network.delivers(self.coordinator_id, node_id):
                self._note_write_drop(ref, node_id)
                continue
            push((now + draws[node_id](), sequence(), deliver, replica, handle))

        handle._timeout_event = self._simulator.schedule(
            self._timeout_ms, lambda: self._write_timeout(handle)
        )
        return handle

    def _deliver_write(self, replica: StorageNode, handle: WriteHandle) -> None:
        """The write message arrives at a replica; apply it and send the ack (A leg)."""
        now = self._clock.now_ms
        node_id = replica.node_id
        if not replica.alive:
            self._note_write_drop(handle.ref, node_id)
            if self._hinted_handoff:
                self._store_hint(node_id, handle.payload)
            if self._sloppy_quorum:
                self._redirect_to_fallback(replica, handle)
            return
        replica.apply_write(handle.payload, now)
        self._note_write_arrival(handle.ref, node_id, now)
        network = self._network
        if network.may_drop and not network.delivers(node_id, self.coordinator_id):
            return
        ack_delay = self._ack_draws[node_id]()
        self._push(
            (now + ack_delay, self._next_sequence(), self._receive_ack, node_id, handle)
        )

    def _receive_ack(self, replica_id: str, handle: WriteHandle) -> None:
        """An acknowledgement reaches the coordinator; commit at the W-th one."""
        now = self._clock.now_ms
        self._note_write_ack(handle.ref, replica_id, now)
        handle.acks_received += 1
        if handle.finished or handle.committed:
            return
        if handle.acks_received >= self._w:
            self._note_write_commit(handle.ref, now)
            handle.committed = True
            handle.finished = True
            if handle._timeout_event is not None:
                handle._timeout_event.cancel()
            if handle.on_complete is not None:
                handle.on_complete(handle.trace)

    def _write_timeout(self, handle: WriteHandle) -> None:
        """Fail the write if the quorum never assembled within the timeout."""
        # The fired event's action closes over the handle: drop the handle's
        # reference to the event so the two do not form a reference cycle.
        handle._timeout_event = None
        if handle.finished:
            return
        handle.finished = True
        if handle.on_complete is not None:
            handle.on_complete(handle.trace)

    # ------------------------------------------------------------------
    # Sloppy quorums.
    # ------------------------------------------------------------------
    def _redirect_to_fallback(self, failed_replica: StorageNode, handle: WriteHandle) -> None:
        """Send the write to the next healthy non-replica node on the ring.

        The fallback's acknowledgement counts toward the write quorum, which is
        what keeps Dynamo-style writes available when home replicas are down.
        Each failed home replica consumes a distinct fallback.
        """
        key = handle.payload.key
        candidates = self._membership.extended_preference_list(
            key, len(self._membership)
        )
        home_ids = {
            node.node_id for node in self._membership.preference_list(key, self._config.n)
        }
        fallback: Optional[StorageNode] = None
        for candidate in candidates:
            if candidate.node_id in home_ids or candidate.node_id in handle.used_fallbacks:
                continue
            if candidate.alive:
                fallback = candidate
                break
        if fallback is None:
            return
        handle.used_fallbacks.add(fallback.node_id)
        if not self._network.delivers(self.coordinator_id, fallback.node_id):
            return
        delay = self._write_draws[fallback.node_id]()
        self._push(
            (
                self._clock.now_ms + delay,
                self._next_sequence(),
                self._deliver_sloppy_write,
                fallback,
                failed_replica,
                handle,
            )
        )

    def _deliver_sloppy_write(
        self, fallback: StorageNode, intended: StorageNode, handle: WriteHandle
    ) -> None:
        """The redirected write arrives at the fallback node."""
        now = self._clock.now_ms
        if not fallback.alive:
            return
        fallback.apply_write(handle.payload, now)
        self._note_write_arrival(handle.ref, fallback.node_id, now)
        if self._hinted_handoff:
            # The fallback holds the data on behalf of the intended replica;
            # keep a hint so it can be replayed after recovery.
            self._store_hint(intended.node_id, handle.payload)
        if not self._network.delivers(fallback.node_id, self.coordinator_id):
            return
        ack_delay = self._ack_draws[fallback.node_id]()
        self._push(
            (now + ack_delay, self._next_sequence(), self._receive_ack, fallback.node_id, handle)
        )

    # ------------------------------------------------------------------
    # Hinted handoff.
    # ------------------------------------------------------------------
    def _store_hint(self, intended_replica: str, payload: VersionedValue) -> None:
        """Keep a hint for a crashed replica; replayed on the next write/read touching it."""
        self._pending_hints.setdefault(intended_replica, []).append(payload)
        self.hints_stored += 1

    def replay_hints(self, replica: StorageNode) -> int:
        """Push held hints to a recovered replica (called by the store's maintenance loop)."""
        if not replica.alive:
            return 0
        hints = self._pending_hints.pop(replica.node_id, [])
        replayed = 0
        for payload in hints:
            delay = self._network.write_delay(replica.node_id)
            self._simulator.schedule_action(
                delay, lambda p=payload: replica.apply_write(p, self._clock.now_ms)
            )
            replayed += 1
        self.hints_replayed += replayed
        return replayed

    @property
    def pending_hint_count(self) -> int:
        """Hints currently held for crashed replicas."""
        return sum(len(hints) for hints in self._pending_hints.values())

    # ------------------------------------------------------------------
    # Read path.
    # ------------------------------------------------------------------
    def read(
        self,
        key: str,
        on_complete: Optional[Callable[[ColumnarReadTrace], None]] = None,
    ) -> ReadHandle:
        """Issue a read: forward to replicas, return the newest of the first R responses."""
        now = self._clock.now_ms
        operation_id = self._next_operation_id()
        ref = self._begin_read(operation_id, key, self.coordinator_id, now)
        replicas = self._preference(key)
        if not self._read_fanout_all:
            replicas = replicas[: self._r]
        handle = ReadHandle(self._trace_log, ref, len(replicas), on_complete=on_complete)

        # See write() above for the local bindings and the lossy check.
        network = self._network
        push = self._push
        sequence = self._next_sequence
        draws = self._read_draws
        deliver = self._deliver_read
        lossy = network.may_drop
        for replica in replicas:
            node_id = replica.node_id
            if lossy and not network.delivers(self.coordinator_id, node_id):
                handle.expected_responses -= 1
                continue
            push((now + draws[node_id](), sequence(), deliver, replica, key, handle))

        handle._timeout_event = self._simulator.schedule(
            self._timeout_ms, lambda: self._read_timeout(handle)
        )
        return handle

    def _deliver_read(self, replica: StorageNode, key: str, handle: ReadHandle) -> None:
        """The read request arrives at a replica; send back its current version (S leg)."""
        if not replica.alive:
            handle.expected_responses -= 1
            if self._read_repair:
                self._maybe_run_read_repair(handle)
            return
        # StorageNode.read inlined: liveness was checked above.
        replica.served_reads += 1
        payload = replica._data.get(key)
        node_id = replica.node_id
        network = self._network
        if network.may_drop and not network.delivers(node_id, self.coordinator_id):
            handle.expected_responses -= 1
            if self._read_repair:
                self._maybe_run_read_repair(handle)
            return
        delay = self._response_draws[node_id]()
        self._push(
            (
                self._clock.now_ms + delay,
                self._next_sequence(),
                self._receive_response,
                node_id,
                payload,
                handle,
            )
        )

    def _receive_response(
        self,
        replica_id: str,
        payload: Optional[VersionedValue],
        handle: ReadHandle,
    ) -> None:
        """A replica's response reaches the coordinator."""
        now = self._clock.now_ms
        handle.responses[replica_id] = payload
        version = payload.version if payload is not None else None

        if not handle.finished and handle.quorum_count < self._r:
            handle.quorum_count += 1
            if payload is not None:
                newest = handle._newest
                if newest is None or version > newest.version:
                    handle._newest = payload
            self._note_read_reply(handle.ref, replica_id, now, version, True)
            if handle.quorum_count >= self._r:
                self._complete_read(handle)
        else:
            self._note_read_reply(handle.ref, replica_id, now, version, False)

        if self._read_repair:
            self._maybe_run_read_repair(handle)

    def _complete_read(self, handle: ReadHandle) -> None:
        """Assemble the result from the first R responses and return to the client."""
        now = self._clock.now_ms
        newest = handle._newest
        handle.value = newest
        self._note_read_complete(
            handle.ref, newest.version if newest is not None else None, now
        )
        handle.finished = True
        if handle._timeout_event is not None:
            handle._timeout_event.cancel()
        if handle.on_complete is not None:
            handle.on_complete(handle.trace)

    def _read_timeout(self, handle: ReadHandle) -> None:
        """Fail the read if fewer than R responses arrived within the timeout."""
        # See _write_timeout: the fired event must not keep the handle alive.
        handle._timeout_event = None
        if handle.finished:
            return
        handle.finished = True
        self._note_read_timeout(handle.ref)
        if handle.on_complete is not None:
            handle.on_complete(handle.trace)

    # ------------------------------------------------------------------
    # Read repair.
    # ------------------------------------------------------------------
    def _maybe_run_read_repair(self, handle: ReadHandle) -> None:
        """After the final response, push the newest version to out-of-date replicas."""
        if not self._read_repair:
            return
        responses_seen = len(handle.responses)
        if responses_seen < handle.expected_responses or responses_seen == 0:
            return
        newest: Optional[VersionedValue] = None
        for payload in handle.responses.values():
            if payload is not None and (newest is None or payload.version > newest.version):
                newest = payload
        if newest is None:
            return
        for replica_id, payload in handle.responses.items():
            is_stale = payload is None or payload.version < newest.version
            if not is_stale:
                continue
            replica = self._membership.node(replica_id)
            delay = self._network.write_delay(replica_id)
            self._simulator.schedule_action(
                delay, lambda r=replica, p=newest: r.apply_write(p, self._clock.now_ms)
            )
            self._note_read_repair(handle.ref)
            self.repairs_sent += 1
