"""Unit tests for the shared engine core: queue, clock, rng, fault injection."""

from __future__ import annotations

import pytest

from repro.engine import (
    Clock,
    CrashRecoveryInjector,
    EngineCore,
    EventQueue,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    SeededRng,
    derive_seed,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(3.0, "c")
        queue.schedule(1.0, "a")
        queue.schedule(2.0, "b")
        assert [event for _, event in queue.pop_due(10.0)] == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        queue = EventQueue()
        for label in "abcde":
            queue.schedule(1.0, label)
        assert [event for _, event in queue.pop_due(1.0)] == list("abcde")

    def test_pop_due_respects_horizon(self):
        queue = EventQueue()
        queue.schedule(1.0, "early")
        queue.schedule(5.0, "late")
        assert [event for _, event in queue.pop_due(2.0)] == ["early"]
        assert len(queue) == 1
        assert list(queue.pop_due(5.0)) == [(5.0, "late")]

    def test_pop_due_sees_events_scheduled_mid_drain(self):
        queue = EventQueue()
        queue.schedule(1.0, "a")
        queue.schedule(3.0, "c")
        seen = []
        for time, event in queue.pop_due(3.0):
            seen.append(event)
            if event == "a":
                queue.schedule(2.0, "b")  # lands between the two pending ones
                queue.schedule(1.0, "a2")  # same time as the event being handled
        assert seen == ["a", "a2", "b", "c"]

    def test_abandoned_drain_leaves_the_rest_pending(self):
        queue = EventQueue()
        for label in "abc":
            queue.schedule(1.0, label)
        for _, event in queue.pop_due(1.0):
            if event == "a":
                break
        assert [event for _, event in queue.pop_due(1.0)] == ["b", "c"]

    def test_explicit_sequence_controls_ties(self):
        queue = EventQueue()
        first = queue.next_sequence()
        second = queue.next_sequence()
        queue.schedule(1.0, "second", sequence=second)
        queue.schedule(1.0, "first", sequence=first)
        assert [event for _, event in queue.pop_due(1.0)] == ["first", "second"]


class TestClock:
    def test_advances_monotonically(self):
        clock = Clock()
        clock.advance(5.0)
        clock.advance(3.0)  # ignored: never backwards
        assert clock.now == 5.0


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7).stream("channel")
        b = SeededRng(7).stream("channel")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        rng = SeededRng(7)
        assert rng.stream("channel").random() != rng.stream("steps").random()

    def test_stream_isolation(self):
        """Draining one stream must not perturb another."""
        fresh = SeededRng(3).stream("faults")
        reference = [fresh.random() for _ in range(5)]
        rng = SeededRng(3)
        for _ in range(1000):
            rng.stream("channel").random()  # heavy traffic on another stream
        assert [rng.stream("faults").random() for _ in range(5)] == reference

    def test_derive_seed_is_stable(self):
        # Hash-derived, not `hash()`-derived: stable across processes/runs.
        assert derive_seed(0, "channel") == derive_seed(0, "channel")
        assert derive_seed(0, "channel") != derive_seed(1, "channel")

    def test_spawn_is_independent(self):
        parent = SeededRng(5)
        child = parent.spawn("worker")
        value = child.stream("x").random()
        assert value == SeededRng(derive_seed(5, "worker")).stream("x").random()


class TestFaultSchedule:
    def test_from_maps_validates_recovery(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_maps({}, {0: 5.0})
        with pytest.raises(ValueError):
            FaultSchedule.from_maps({0: 5.0}, {0: 5.0})

    def test_from_maps_builds_sorted_events(self):
        schedule = FaultSchedule.from_maps({0: 2.0, 1: 1.0}, {0: 4.0})
        assert [(e.time, e.kind, e.process) for e in schedule.events] == [
            (1.0, FaultKind.CRASH, 1),
            (2.0, FaultKind.CRASH, 0),
            (4.0, FaultKind.RECOVER, 0),
        ]

    def test_merged_with(self):
        merged = FaultSchedule.crash_stop([(0, 1.0)]).merged_with(
            FaultSchedule.crash_stop([(1, 0.5)])
        )
        assert [e.process for e in merged.events] == [1, 0]


class TestCrashRecoveryInjector:
    def _make(self, schedule, veto=None):
        applied = []
        injector = CrashRecoveryInjector(
            schedule,
            crash=lambda p: applied.append(("crash", p)) or True,
            recover=lambda p: applied.append(("recover", p)) or True,
            veto=veto,
        )
        return injector, applied

    def test_arm_and_apply(self):
        schedule = FaultSchedule.crash_recovery([(1, 2.0, 5.0)])
        injector, applied = self._make(schedule)
        queue = EventQueue()
        injector.arm(queue)
        for _, event in queue.pop_due(10.0):
            injector.apply(event)
        assert applied == [("crash", 1), ("recover", 1)]
        assert injector.skipped == []

    def test_veto_records_skipped(self):
        schedule = FaultSchedule.crash_stop([(0, 1.0)])
        injector, applied = self._make(schedule, veto=lambda fault: True)
        injector.apply(schedule.events[0])
        assert applied == []
        assert injector.skipped == schedule.events


class TestEngineCoreRunLoop:
    def test_dispatches_in_order_and_advances_clock(self):
        engine = EngineCore(seed=0)
        seen = []
        engine.queue.schedule(2.0, "b")
        engine.queue.schedule(1.0, "a")
        engine.queue.schedule(9.0, "late")
        stopped = engine.run(5.0, lambda event: seen.append((engine.now, event)))
        assert not stopped
        assert seen == [(1.0, "a"), (2.0, "b")]
        assert engine.now == 5.0  # advanced to the horizon
        assert len(engine.queue) == 1  # the late event is still pending

    def test_stop_when_halts_early(self):
        engine = EngineCore(seed=0)
        seen = []
        for t in (1.0, 2.0, 3.0):
            engine.queue.schedule(t, t)
        stopped = engine.run(
            10.0, lambda event: seen.append(event), stop_when=lambda: len(seen) >= 2
        )
        assert stopped
        assert seen == [1.0, 2.0]
        assert engine.now == 2.0  # clock does NOT jump to the horizon

    def test_events_scheduled_during_dispatch_run(self):
        engine = EngineCore(seed=0)
        seen = []

        def dispatch(event):
            seen.append(event)
            if event == "first":
                engine.queue.schedule(engine.now + 1.0, "second")

        engine.queue.schedule(1.0, "first")
        engine.run(5.0, dispatch)
        assert seen == ["first", "second"]

    def test_equal_time_events_dispatch_fifo(self):
        engine = EngineCore(seed=0)
        seen = []

        def dispatch(event):
            seen.append(event)
            if event == "b":
                # Scheduled for the very time being drained: runs after every
                # event already queued for that time, before anything later.
                engine.queue.schedule(engine.now, "b-child")

        for label in "abc":
            engine.queue.schedule(1.0, label)
        engine.queue.schedule(2.0, "later")
        engine.run(5.0, dispatch)
        assert seen == ["a", "b", "c", "b-child", "later"]

    def test_until_exactly_on_an_event_time_includes_it(self):
        engine = EngineCore(seed=0)
        seen = []
        engine.queue.schedule(2.0, "on-the-horizon")
        engine.queue.schedule(2.5, "beyond")
        stopped = engine.run(2.0, seen.append)
        assert not stopped
        assert seen == ["on-the-horizon"]
        assert engine.now == 2.0
        assert len(engine.queue) == 1

    def test_stop_on_first_event_keeps_clock_and_queue(self):
        engine = EngineCore(seed=0)
        seen = []
        for t in (1.0, 1.0, 4.0):
            engine.queue.schedule(t, t)
        stopped = engine.run(10.0, seen.append, stop_when=lambda: bool(seen))
        assert stopped
        assert seen == [1.0]
        assert engine.now == 1.0  # not max(now, until): the run was stopped
        assert len(engine.queue) == 2  # the equal-time sibling is still pending
        # A follow-up segment resumes with the pending sibling first.
        engine.run(10.0, seen.append)
        assert seen == [1.0, 1.0, 4.0]
        assert engine.now == 10.0

    def test_stop_condition_already_true_dispatches_nothing(self):
        engine = EngineCore(seed=0)
        seen = []
        engine.queue.schedule(1.0, "never")
        assert engine.run(5.0, seen.append, stop_when=lambda: True)
        assert seen == []
        assert engine.now == 0.0
        assert len(engine.queue) == 1

    def test_empty_queue_advances_to_the_horizon(self):
        engine = EngineCore(seed=0)
        assert not engine.run(7.0, lambda event: pytest.fail("nothing to dispatch"))
        assert engine.now == 7.0
        # Never backwards: a shorter horizon leaves the clock where it is.
        assert not engine.run(3.0, lambda event: pytest.fail("nothing to dispatch"))
        assert engine.now == 7.0

    def test_past_events_do_not_move_the_clock_backwards(self):
        engine = EngineCore(seed=0)
        times = []
        engine.run(5.0, lambda event: None)
        engine.queue.schedule(2.0, "stale")
        engine.run(6.0, lambda event: times.append(engine.now))
        assert times == [5.0]
        assert engine.now == 6.0
