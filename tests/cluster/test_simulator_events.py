"""Unit tests for the clock, event queue, and discrete-event simulator."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.clock import SimulationClock
from repro.cluster.events import EventQueue
from repro.cluster.simulator import Simulator
from repro.exceptions import SimulationError


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now_ms == 0.0

    def test_advance_forward(self):
        clock = SimulationClock()
        clock.advance_to(12.5)
        assert clock.now_ms == 12.5

    def test_cannot_move_backwards(self):
        clock = SimulationClock(start_ms=10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimulationClock(start_ms=-1.0)

    def test_reset(self):
        clock = SimulationClock()
        clock.advance_to(100.0)
        clock.reset()
        assert clock.now_ms == 0.0


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push(5.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order: list[int] = []
        for index in range(5):
            queue.push(3.0, lambda i=index: order.append(i))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired: list[str] = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(2.0, lambda: fired.append("drop"))
        drop.cancel()
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["keep"]
        assert keep.label == ""

    def test_cancel_drops_the_action(self):
        queue = EventQueue()
        fired: list[str] = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        event.cancel()
        assert event.cancelled and event.action is None
        assert queue.pop() is None
        assert fired == []

    def test_cancelled_event_does_not_keep_its_owner_alive(self):
        """An owner holding its own cancellable event (as an operation handle
        holds its timeout) is freed by reference counting once cancelled."""

        class Owner:
            pass

        def make_owner(queue: EventQueue) -> Owner:
            owner = Owner()
            owner.timeout = queue.push(5.0, lambda: fired.append(owner))
            return owner

        fired: list[Owner] = []
        queue = EventQueue()
        owner = make_owner(queue)
        owner.timeout.cancel()
        alive = weakref.ref(owner)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del owner
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
        assert len(queue) == 0

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        cancelled = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(7.0, lambda: None)
        assert queue.peek_time() == 7.0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)


class TestSimulator:
    def test_schedule_and_run_advances_clock(self):
        simulator = Simulator(rng=0)
        seen: list[float] = []
        simulator.schedule(10.0, lambda: seen.append(simulator.now_ms))
        simulator.schedule(5.0, lambda: seen.append(simulator.now_ms))
        simulator.run()
        assert seen == [5.0, 10.0]
        assert simulator.now_ms == 10.0
        assert simulator.processed_events == 2

    def test_schedule_at_absolute_time(self):
        simulator = Simulator(rng=0)
        simulator.schedule_at(3.0, lambda: None)
        simulator.run()
        assert simulator.now_ms == 3.0

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator(rng=0)
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_run_until_horizon_leaves_later_events(self):
        simulator = Simulator(rng=0)
        fired: list[float] = []
        simulator.schedule(1.0, lambda: fired.append(1.0))
        simulator.schedule(100.0, lambda: fired.append(100.0))
        simulator.run(until_ms=10.0)
        assert fired == [1.0]
        assert simulator.now_ms == 10.0
        assert simulator.pending_events == 1
        simulator.run()
        assert fired == [1.0, 100.0]

    def test_events_can_schedule_events(self):
        simulator = Simulator(rng=0)
        fired: list[str] = []

        def first() -> None:
            fired.append("first")
            simulator.schedule(5.0, lambda: fired.append("second"))

        simulator.schedule(1.0, first)
        simulator.run()
        assert fired == ["first", "second"]
        assert simulator.now_ms == 6.0

    def test_event_storm_guard(self):
        simulator = Simulator(rng=0, max_events=100)

        def rescheduling() -> None:
            simulator.schedule(1.0, rescheduling)

        simulator.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=1_000.0)

    def test_reset_clears_queue_and_clock(self):
        simulator = Simulator(rng=0)
        simulator.schedule(50.0, lambda: None)
        simulator.run()
        simulator.schedule(10.0, lambda: None)
        simulator.reset()
        assert simulator.pending_events == 0
        assert simulator.now_ms == 0.0
        assert simulator.processed_events == 0

    def test_reset_mid_run_then_rerun_matches_fresh_simulator(self):
        """reset() with raw call entries pending (every message delivery is
        one) clears them, and a rerun replays a fresh simulator exactly."""

        def ping_pong(simulator: Simulator, trace: list) -> None:
            queue = simulator.queue

            def hop(remaining: int, tag: str) -> None:
                trace.append((simulator.now_ms, tag, remaining))
                if remaining:
                    queue.push_entry(
                        (simulator.now_ms + 1.5, queue.next_sequence(), hop, remaining - 1, tag)
                    )

            for tag in ("a", "b"):
                queue.push_entry((0.5, queue.next_sequence(), hop, 40, tag))
            simulator.schedule_action(3.0, lambda: trace.append("action"))
            timeout = simulator.schedule(500.0, lambda: trace.append("timeout"))
            simulator.schedule(20.0, timeout.cancel)

        fresh, expected = Simulator(rng=0), []
        ping_pong(fresh, expected)
        fresh.run()

        simulator, partial = Simulator(rng=0), []
        ping_pong(simulator, partial)
        simulator.run(until_ms=10.0)
        assert simulator.pending_events > 0
        simulator.reset()
        assert simulator.pending_events == 0
        assert simulator.now_ms == 0.0 and simulator.processed_events == 0

        rerun: list = []
        ping_pong(simulator, rerun)
        simulator.run()
        assert rerun == expected
        assert simulator.processed_events == fresh.processed_events
        assert simulator.pending_events == 0

    def test_step_returns_false_when_empty(self):
        assert Simulator(rng=0).step() is False

    def test_deterministic_rng_from_seed(self):
        a = Simulator(rng=7).rng.random(5)
        b = Simulator(rng=7).rng.random(5)
        assert list(a) == list(b)


class TestLiveCountAccounting:
    """Regression tests for the O(1) ``len(queue)`` counter.

    The count must stay exact through every push/pop/cancel/drain sequence —
    the pre-overhaul implementation recomputed it with an O(n) scan, so any
    drift here is silent corruption rather than a crash.
    """

    def test_len_exact_through_mixed_cancellation_and_drain(self):
        queue = EventQueue()
        events = [queue.push(float(i % 7), lambda: None) for i in range(50)]
        assert len(queue) == 50
        for event in events[::3]:
            event.cancel()
        expected = 50 - len(events[::3])
        assert len(queue) == expected
        drained = 0
        while queue.pop() is not None:
            drained += 1
            assert len(queue) == expected - drained
        assert drained == expected
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        event = queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # already fired; must not decrement the live count
        assert len(queue) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        event.cancel()
        queue.push(1.0, lambda: None)
        assert len(queue) == 1

    def test_clear_drops_raw_entries_of_every_arity(self):
        queue = EventQueue()
        fired: list[object] = []
        event = queue.push(1.0, lambda: fired.append("event"))
        queue.push_action(2.0, lambda: fired.append("action"))
        queue.push_entry((3.0, queue.next_sequence(), fired.append, "one"))
        queue.push_entry((4.0, queue.next_sequence(), lambda a, b: fired.append((a, b)), 1, 2))
        queue.push_entry(
            (5.0, queue.next_sequence(), lambda a, b, c: fired.append((a, b, c)), 1, 2, 3)
        )
        assert len(queue) == 5
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None
        event.cancel()  # detached by clear(): must not touch the count
        queue.push_entry((1.0, queue.next_sequence(), fired.append, "after"))
        assert len(queue) == 1
        queue.pop().action()
        assert fired == ["after"]

    def test_peek_time_discards_cancelled_head_and_keeps_count(self):
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        head.cancel()
        assert len(queue) == 1
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_push_action_entries_are_counted_and_popped(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push_action(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        assert len(queue) == 2
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b"]
        assert len(queue) == 0

    def test_compaction_preserves_order_and_count(self):
        from repro.cluster.events import COMPACTION_MIN_CANCELLED

        queue = EventQueue()
        cancellable = [
            queue.push(float(i), lambda: None)
            for i in range(COMPACTION_MIN_CANCELLED + 10)
        ]
        survivors: list[float] = []
        keep_a = queue.push(0.5, lambda: survivors.append(0.5))
        keep_b = queue.push(2_000.0, lambda: survivors.append(2_000.0))
        for event in cancellable:
            event.cancel()
        # All cancellable events cancelled: compaction must have fired at the
        # threshold, bounding the heap to the stragglers cancelled after the
        # rebuild plus the two live events.
        assert len(queue) == 2
        assert len(queue._heap) < COMPACTION_MIN_CANCELLED
        while (event := queue.pop()) is not None:
            event.action()
        assert survivors == [0.5, 2_000.0]
        assert keep_a.cancelled is False and keep_b.cancelled is False


class TestFastPathScheduling:
    def test_push_entry_dispatches_with_arguments(self):
        simulator = Simulator(rng=0)
        queue = simulator.queue
        seen: list[tuple] = []

        def record(a, b):
            seen.append((a, b, simulator.now_ms))

        queue.push_entry((4.0, queue.next_sequence(), record, "x", 1))
        queue.push_entry((2.0, queue.next_sequence(), record, "y", 2))
        assert len(queue) == 2
        simulator.run()
        assert seen == [("y", 2, 2.0), ("x", 1, 4.0)]
        assert simulator.processed_events == 2
        assert len(queue) == 0

    def test_push_entry_three_arguments_and_step(self):
        simulator = Simulator(rng=0)
        queue = simulator.queue
        seen: list[tuple] = []
        queue.push_entry(
            (1.0, queue.next_sequence(), lambda a, b, c: seen.append((a, b, c)), 1, 2, 3)
        )
        assert simulator.step() is True
        assert seen == [(1, 2, 3)]

    def test_entries_and_events_share_one_sequence(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.push(1.0, lambda: fired.append("event"))
        queue.push_entry((1.0, queue.next_sequence(), fired.append, "entry"))
        queue.push_action(1.0, lambda: fired.append("action"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["event", "entry", "action"]

    def test_schedule_action_runs_without_event_allocation(self):
        simulator = Simulator(rng=0)
        fired: list[float] = []
        simulator.schedule_action(5.0, lambda: fired.append(simulator.now_ms))
        with pytest.raises(SimulationError):
            simulator.schedule_action(-1.0, lambda: None)
        simulator.run()
        assert fired == [5.0]

    def test_schedule_at_action_validates_past(self):
        simulator = Simulator(rng=0)
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at_action(1.0, lambda: None)
        simulator.schedule_at_action(9.0, lambda: None)
        simulator.run()
        assert simulator.now_ms == 9.0

    def test_pop_wraps_raw_entries_in_events(self):
        queue = EventQueue()
        fired: list[int] = []
        queue.push_entry((1.0, queue.next_sequence(), fired.append, 7))
        event = queue.pop()
        assert event is not None
        event.action()
        assert fired == [7]


class TestProcessedCountOnFailure:
    def test_processed_events_exact_when_action_raises(self):
        simulator = Simulator(rng=0)
        simulator.schedule(1.0, lambda: None)

        def boom() -> None:
            raise RuntimeError("event action failed")

        simulator.schedule(2.0, boom)
        with pytest.raises(RuntimeError):
            simulator.run()
        # The event before the failure *and* the failing event were processed.
        assert simulator.processed_events == 2

    def test_event_storm_budget_survives_retried_runs(self):
        simulator = Simulator(rng=0, max_events=10)

        def rescheduling() -> None:
            simulator.schedule(1.0, rescheduling)

        simulator.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=1_000.0)
        processed_after_storm = simulator.processed_events
        assert processed_after_storm >= 10
        # A retried run must not restart the budget from a stale count: the
        # very next processed event exceeds it again.
        simulator.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=2_000.0)
        assert simulator.processed_events == processed_after_storm + 1
