"""Event records and the priority queue driving the discrete-event simulator.

Events are ordered by scheduled time; ties are broken by an insertion sequence
number so simulation runs are fully deterministic for a fixed seed.

This module is the innermost loop of the cluster substrate: a §5.2
paper-scale validation run pushes and pops millions of events, so the
representation is deliberately lean.  The heap holds flat tuples —
``(time_ms, sequence, event)`` for cancellable :class:`Event` objects and
``(time_ms, sequence, method, arg1, ...)`` for everything else — so tuple
comparison happens entirely in C and no Python ``__lt__`` runs during sifts.
Cancellation is O(1): the event flips a flag and tells its queue, which keeps
an exact count of the cancelled entries still buried in the heap (making
``len(queue)`` O(1)) and compacts the heap when they dominate, keeping memory
bounded on timeout-heavy workloads where every operation schedules a timeout
it almost always cancels.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Callable

from repro.exceptions import SimulationError

__all__ = ["Event", "EventQueue"]

#: Compact the heap once at least this many cancelled events are buried in it
#: (and they outnumber the live ones).  Chosen large enough that small runs
#: never compact and big runs amortise the rebuild to O(1) per cancellation.
COMPACTION_MIN_CANCELLED = 1024


class Event:
    """A scheduled, cancellable callback.

    Attributes
    ----------
    time_ms:
        Simulated time at which the event fires.
    sequence:
        Monotonic tie-breaker assigned by the queue.
    action:
        Zero-argument callable invoked when the event fires; ``None`` once
        the event is cancelled.
    label:
        Optional human-readable tag shown in the event's ``repr``.  Failure
        injection and anti-entropy label their events; message deliveries are
        raw heap entries and carry no label.
    cancelled:
        Cancelled events remain in the heap but are skipped when popped.
    """

    __slots__ = ("time_ms", "sequence", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time_ms: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time_ms = time_ms
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark this event so the simulator skips it (O(1), exact accounting).

        The action is dropped: a cancellable event must not keep its owner
        alive.  An operation timeout's action closes over the operation's
        handle, which holds the event to cancel it, so keeping the action
        would leave one reference cycle per finished operation that only the
        cyclic garbage collector could free.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.action = None
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Kept for API compatibility with the earlier ordered-dataclass Event;
        # the queue itself compares (time_ms, sequence) tuples, not events.
        return (self.time_ms, self.sequence) < (other.time_ms, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time_ms:.3f}ms seq={self.sequence}{tag} {state}>"


class EventQueue:
    """A deterministic min-heap of scheduled callbacks.

    Two ways in:

    * :meth:`push` schedules a cancellable :class:`Event`;
    * ``push_entry((time_ms, next_sequence(), method, arg1, ...))`` schedules
      an uncancellable pre-bound call with at most three arguments.  Both
      attributes are C-level callables (a bound ``heappush`` and a counter),
      so a message send costs one heap push and no Python frame.  Callers
      compute ``time_ms`` themselves and must keep it non-negative and no
      earlier than the clock.

    ``len(queue)`` is the heap size minus the cancelled events still buried
    in it, both O(1).  Cancelled events stay in the heap until popped or
    until a compaction pass rebuilds the heap without them (triggered when
    they both reach :data:`COMPACTION_MIN_CANCELLED` and outnumber live
    events — a deterministic rule, so runs stay reproducible).
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        #: Next tie-breaking sequence number (call it once per heap entry).
        self.next_sequence: Callable[[], int] = itertools.count().__next__
        #: Push one raw ``(time_ms, sequence, method, *args)`` heap entry.
        self.push_entry: Callable[[tuple], None] = partial(heapq.heappush, self._heap)
        self._cancelled_pending = 0
        #: Processed-event count as of the end of the last :meth:`drain` call,
        #: maintained even when an event action raises — the simulator reads
        #: it in a ``finally`` so ``processed_events`` (and with it the
        #: event-storm budget) stays exact across failed runs.
        self.last_drain_processed = 0

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events — O(1)."""
        return len(self._heap) - self._cancelled_pending

    def push(self, time_ms: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time_ms``.

        Returns the :class:`Event`, which supports :meth:`Event.cancel`.  Hot
        paths that never cancel should use :attr:`push_entry`, which skips
        the Event allocation entirely.
        """
        if time_ms < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time_ms}")
        time_ms = float(time_ms)
        event = Event(time_ms, self.next_sequence(), action, label, self)
        heapq.heappush(self._heap, (time_ms, event.sequence, event))
        return event

    def push_action(self, time_ms: float, action: Callable[[], None]) -> None:
        """Schedule an *uncancellable* ``action`` — no :class:`Event` is allocated."""
        if time_ms < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time_ms}")
        self.push_entry((float(time_ms), self.next_sequence(), action))

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None`` if empty.

        Raw entries (see :attr:`push_entry`) are wrapped in a detached
        :class:`Event` so the return type stays uniform (the simulator's run
        loop dispatches raw entries and never pays for this).
        """
        entry = self._pop_raw(float("inf"))
        if entry is None:
            return None
        item = entry[2]
        if item.__class__ is Event:
            return item
        if len(entry) == 3:
            return Event(entry[0], -1, item)
        return Event(entry[0], -1, lambda e=entry: e[2](*e[3:]))

    def _pop_raw(self, until_ms: float) -> "tuple | None":
        """Fused peek+pop of the earliest live heap entry with ``time <= until_ms``.

        Returns the raw heap tuple so callers can dispatch without
        intermediate allocations; cancelled events are skipped and accounted.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            item = entry[2]
            if item.__class__ is Event and item.cancelled:
                heapq.heappop(heap)
                self._cancelled_pending -= 1
                continue
            if entry[0] > until_ms:
                return None
            heapq.heappop(heap)
            if item.__class__ is Event:
                # Detach so a late cancel() (e.g. of an already-fired
                # timeout) cannot corrupt the live count.
                item._queue = None
            return entry
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the next non-cancelled event without removing it."""
        heap = self._heap
        while heap and heap[0][2].__class__ is Event and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        # Detach surviving events so cancelling one later cannot decrement
        # the counters of a queue it no longer belongs to.  Raw entries carry
        # one to three call arguments after the time and sequence.
        for entry in self._heap:
            item = entry[2]
            if item.__class__ is Event:
                item._queue = None
        self._heap.clear()
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Cancellation accounting.
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` exactly once per pending event."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= COMPACTION_MIN_CANCELLED
            and self._cancelled_pending > len(self)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (preserves ordering).

        Mutates the heap list *in place* (slice assignment) because
        :meth:`drain` and :attr:`push_entry` hold references to it while
        events — whose actions may cancel other events and trigger
        compaction — are running.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # The drain loop.
    # ------------------------------------------------------------------
    def drain(
        self,
        clock,
        horizon: float,
        processed: int,
        max_events: int,
    ) -> int:
        """Pop and dispatch every live entry with ``time <= horizon``.

        This is the simulator's inner loop, hosted here so the heap, the
        heappop builtin, and the clock are locals — at millions of events the
        saved attribute loads and call frames are a measurable share of the
        run.  Returns the updated processed-event count; raises
        :class:`SimulationError` past ``max_events``.  ``clock`` is a
        :class:`~repro.cluster.clock.SimulationClock`; its ``now_ms`` is
        assigned directly (heap order guarantees monotonicity, which is also
        asserted).
        """
        heap = self._heap
        pop = heapq.heappop
        now = clock.now_ms
        try:
            while heap:
                entry = heap[0]
                time_ms = entry[0]
                if time_ms > horizon:
                    break
                pop(heap)
                length = len(entry)
                if length == 3:
                    item = entry[2]
                    if item.__class__ is Event:
                        if item.cancelled:
                            self._cancelled_pending -= 1
                            continue
                        item._queue = None
                if time_ms != now:
                    if time_ms < now:
                        raise SimulationError(
                            f"clock cannot move backwards (now={now}, "
                            f"requested={time_ms})"
                        )
                    now = time_ms
                    clock.now_ms = time_ms
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "possible event storm"
                    )
                if length == 5:
                    entry[2](entry[3], entry[4])
                elif length == 6:
                    entry[2](entry[3], entry[4], entry[5])
                elif length == 4:
                    entry[2](entry[3])
                elif item.__class__ is Event:
                    item.action()
                else:
                    item()
        finally:
            self.last_drain_processed = processed
        return processed
