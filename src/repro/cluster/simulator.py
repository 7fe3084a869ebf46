"""Deterministic discrete-event simulation loop.

The :class:`Simulator` owns the clock, the event queue, and the random number
generator shared by every component of the cluster.  Components schedule work
with :meth:`Simulator.schedule` (relative delays) or
:meth:`Simulator.schedule_at` (absolute times); :meth:`Simulator.run` drains
the queue in time order.

The ``clock`` attribute is shared *by identity* with components that need to
observe simulated time outside the event callbacks — notably the network's
:class:`~repro.faults.runtime.FaultRuntime`, whose time-varying modulation
reads ``clock.now_ms`` on every delay draw.  Events dispatch in
non-decreasing time order, so observers may rely on the clock being
monotonic within a run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.clock import SimulationClock
from repro.cluster.events import Event, EventQueue
from repro.exceptions import SimulationError
from repro.latency.base import as_rng

__all__ = ["Simulator"]


def _dispatch(entry: tuple) -> None:
    """Invoke one raw heap entry (see :attr:`EventQueue.push_entry`)."""
    length = len(entry)
    if length == 5:
        entry[2](entry[3], entry[4])
    elif length == 6:
        entry[2](entry[3], entry[4], entry[5])
    elif length == 4:
        entry[2](entry[3])
    else:
        item = entry[2]
        if item.__class__ is Event:
            item.action()
        else:
            item()


class Simulator:
    """Event loop shared by all cluster components.

    Parameters
    ----------
    rng:
        Seed or generator used for every stochastic choice in the simulation
        (message delays, workload sampling, failure injection), making runs
        reproducible end to end.
    max_events:
        Safety valve against runaway event storms; exceeded runs raise
        :class:`SimulationError`.
    """

    def __init__(
        self,
        rng: np.random.Generator | int | None = None,
        max_events: int = 50_000_000,
    ) -> None:
        if max_events <= 0:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        self.clock = SimulationClock()
        self.rng = as_rng(rng)
        self._queue = EventQueue()
        self._max_events = max_events
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.now_ms

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def schedule(self, delay_ms: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to fire ``delay_ms`` milliseconds from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay {delay_ms})")
        return self._queue.push(self.clock.now_ms + delay_ms, action, label)

    def schedule_action(self, delay_ms: float, action: Callable[[], None]) -> None:
        """Schedule an *uncancellable* ``action`` ``delay_ms`` ms from now.

        The hot-path twin of :meth:`schedule`: no :class:`Event` object (and
        no label) is allocated, so message-delivery events — which are never
        cancelled — cost only a heap entry.
        """
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay {delay_ms})")
        self._queue.push_action(self.clock.now_ms + delay_ms, action)

    def schedule_at_action(self, time_ms: float, action: Callable[[], None]) -> None:
        """Uncancellable twin of :meth:`schedule_at` (no Event, no label)."""
        if time_ms < self.clock.now_ms:
            raise SimulationError(
                f"cannot schedule an event in the past (now={self.clock.now_ms}, "
                f"at={time_ms})"
            )
        self._queue.push_action(float(time_ms), action)

    @property
    def queue(self) -> EventQueue:
        """The simulator's event queue.

        Exposed so hot-path components (the coordinator's message sends) can
        use the queue's allocation-free :attr:`EventQueue.push_entry` directly
        with precomputed absolute times; everything else should go through
        :meth:`schedule`/:meth:`schedule_at`, which validate times.
        """
        return self._queue

    def schedule_at(self, time_ms: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to fire at absolute simulated time ``time_ms``."""
        if time_ms < self.now_ms:
            raise SimulationError(
                f"cannot schedule an event in the past (now={self.now_ms}, at={time_ms})"
            )
        return self._queue.push(time_ms, action, label)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event.  Returns ``False`` when the queue is empty."""
        entry = self._queue._pop_raw(float("inf"))
        if entry is None:
            return False
        self.clock.advance_to(entry[0])
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"simulation exceeded {self._max_events} events; possible event storm"
            )
        _dispatch(entry)
        return True

    def run(self, until_ms: float | None = None) -> None:
        """Drain the event queue, optionally stopping once the clock passes ``until_ms``.

        With ``until_ms`` given, events scheduled after the horizon stay in the
        queue and the clock is advanced exactly to the horizon.

        The loop body is an inlined :meth:`step` with hot attributes bound to
        locals: the queue is popped and the clock advanced directly, and the
        processed-event counter lives in a local that is written back when the
        loop exits (event actions only schedule work — they never re-enter
        ``run``/``step``, which the re-entrancy guard enforces).
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant; run() called recursively")
        self._running = True
        clock = self.clock
        queue = self._queue
        horizon = float("inf") if until_ms is None else float(until_ms)
        try:
            queue.drain(clock, horizon, self._processed, self._max_events)
            if until_ms is not None and until_ms > clock.now_ms:
                clock.advance_to(until_ms)
        finally:
            # The queue records its progress even when an event action (or
            # the storm guard) raises mid-drain, keeping processed_events —
            # and the max_events budget on a retried run() — exact.
            self._processed = queue.last_drain_processed
            self._running = False

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self.clock.reset()
        self._processed = 0
