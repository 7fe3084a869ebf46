"""The pre-overhaul ("reference") simulation engine, kept as a pinned baseline.

The hot-path overhaul (batched draw buffers, tuple-heap events, pre-bound
call dispatch — see :mod:`repro.cluster.events` and
:mod:`repro.cluster.sampling`) replaced this implementation wholesale.  The
original engine is preserved here, verbatim in behaviour, for two reasons:

* **benchmark honesty** — the ``>= 5x events/sec`` claim in ``benchmarks/``
  is measured against *this* engine (the pre-overhaul simulator path), not
  against a de-tuned configuration of the new one;
* **equivalence anchoring** — ``DynamoCluster(engine="reference")`` runs the
  identical protocol code (coordinator, nodes, tracing) on the old event
  loop and the old per-message ``sample(1, rng)`` draws, so statistical
  equivalence of the batched path can be demonstrated against the true
  legacy seed discipline end to end.

The RNG stream of this engine is bit-for-bit the pre-overhaul stream: one
``sample(1, rng)`` call per delivered message in event order, and one scalar
``rng.random()`` per loss decision.  (The event representation itself never
consumes randomness, so ``DynamoCluster(draw_batch_size=1)`` on the new
engine reproduces the same stream — just faster; this module additionally
reproduces the old *costs*.)

Use ``DynamoCluster(engine="reference", event_labels=True)`` for a faithful
pre-overhaul baseline: the original coordinator always built per-message
event labels, so benchmarks should enable them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.network import Network
from repro.cluster.simulator import Simulator
from repro.exceptions import ConfigurationError, SimulationError
from repro.latency.composite import PerReplicaLatency

__all__ = ["ReferenceEvent", "ReferenceEventQueue", "ReferenceSimulator", "ReferenceNetwork"]


@dataclass(order=True)
class ReferenceEvent:
    """The pre-overhaul ordered-dataclass event (heap sifts run Python ``__lt__``)."""

    time_ms: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the simulator skips it."""
        self.cancelled = True


class ReferenceEventQueue:
    """The pre-overhaul event heap: dataclass events, O(n) live count."""

    def __init__(self) -> None:
        self._heap: list[ReferenceEvent] = []
        self.next_sequence = itertools.count().__next__
        self.last_drain_processed = 0

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(
        self, time_ms: float, action: Callable[[], None], label: str = ""
    ) -> ReferenceEvent:
        """Schedule ``action`` at absolute simulated time ``time_ms``."""
        if time_ms < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time_ms}")
        event = ReferenceEvent(
            time_ms=float(time_ms),
            sequence=self.next_sequence(),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def push_action(self, time_ms: float, action: Callable[[], None]) -> ReferenceEvent:
        """Fast-path compatibility shim: the reference engine has no fast path."""
        return self.push(time_ms, action)

    def push_entry(self, entry: tuple) -> None:
        """Fast-path compatibility shim: wraps a raw heap entry in a closure event."""
        heapq.heappush(
            self._heap,
            ReferenceEvent(
                time_ms=entry[0],
                sequence=entry[1],
                action=lambda: entry[2](*entry[3:]),
            ),
        )

    def pop(self) -> ReferenceEvent | None:
        """Remove and return the earliest non-cancelled event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the next non-cancelled event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time_ms

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def drain(self, clock, horizon: float, processed: int, max_events: int) -> int:
        """Pre-overhaul drain: peek, pop, advance, call — one event at a time."""
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time > horizon:
                    return processed
                event = self.pop()
                clock.advance_to(event.time_ms)
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; possible event storm"
                    )
                event.action()
        finally:
            self.last_drain_processed = processed


class ReferenceSimulator(Simulator):
    """The pre-overhaul event loop on the pre-overhaul queue.

    Identical scheduling semantics to :class:`~repro.cluster.simulator.Simulator`
    (same API, same determinism); only the event representation and the loop
    mechanics differ.  ``schedule_action``/``schedule_at_action`` fall back to
    the allocating paths, as the original engine had no allocation-free twins.
    """

    def __init__(
        self,
        rng: np.random.Generator | int | None = None,
        max_events: int = 50_000_000,
    ) -> None:
        super().__init__(rng=rng, max_events=max_events)
        self._queue = ReferenceEventQueue()

    def schedule_action(self, delay_ms: float, action: Callable[[], None]) -> None:
        self.schedule(delay_ms, action)

    def schedule_at_action(self, time_ms: float, action: Callable[[], None]) -> None:
        self.schedule_at(time_ms, action)

    def step(self) -> bool:
        """Process the next event — the pre-overhaul pop/advance/call cycle."""
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time_ms)
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"simulation exceeded {self._max_events} events; possible event storm"
            )
        event.action()
        return True


class ReferenceNetwork(Network):
    """The pre-overhaul network: one numpy ``sample(1, rng)`` call per message.

    Inherits the :class:`~repro.cluster.network.Network` configuration and
    loss/partition bookkeeping but restores the original per-call sampling
    (no draw buffers) and the original ``delivers`` (scalar ``rng.random()``
    per loss decision, frozenset membership test per message).
    """

    def _draw_source(self, leg: str, replica: str) -> Callable[[], float]:
        distribution = getattr(self.distributions, leg.lower())
        if isinstance(distribution, PerReplicaLatency):
            slot = self.replica_slots.get(replica)
            if slot is None:
                raise ConfigurationError(
                    f"replica {replica!r} has no slot assignment for "
                    "per-replica latencies"
                )
            distribution = distribution.replicas[slot]
        rng = self.rng
        return lambda: float(distribution.sample(1, rng)[0])

    def delivers(self, sender: str, receiver: str) -> bool:
        if frozenset((sender, receiver)) in self._partitioned:
            self.dropped_messages += 1
            return False
        if self.loss_probability and self.rng.random() < self.loss_probability:
            self.dropped_messages += 1
            return False
        return True

    @property
    def draw_refills(self) -> int:
        return 0
