"""Unit tests for fault schedules and bad-period behaviour descriptions."""

from __future__ import annotations

import pytest

from repro.sysmodel.faults import (
    BadPeriodProcessBehavior,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)


class TestFaultEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FaultKind.CRASH, 0)


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            events=[
                FaultEvent(5.0, FaultKind.CRASH, 1),
                FaultEvent(1.0, FaultKind.CRASH, 0),
            ]
        )
        assert [event.time for event in schedule.events] == [1.0, 5.0]

    def test_crash_stop_constructor(self):
        schedule = FaultSchedule.crash_stop([(0, 3.0), (2, 7.0)])
        assert len(schedule.events) == 2
        assert all(event.kind is FaultKind.CRASH for event in schedule.events)
        assert {event.process for event in schedule.events} == {0, 2}

    def test_crash_recovery_constructor(self):
        schedule = FaultSchedule.crash_recovery([(1, 2.0, 9.0)])
        kinds = [event.kind for event in schedule.events]
        assert kinds == [FaultKind.CRASH, FaultKind.RECOVER]

    def test_crash_recovery_requires_ordering(self):
        with pytest.raises(ValueError):
            FaultSchedule.crash_recovery([(1, 5.0, 5.0)])

    def test_concatenated_schedules_are_sorted(self):
        a = FaultSchedule.crash_stop([(0, 1.0)])
        b = FaultSchedule.crash_stop([(1, 0.5)])
        merged = FaultSchedule(events=a.events + b.events)
        assert [event.process for event in merged.events] == [1, 0]

    def test_none(self):
        assert FaultSchedule.none().events == []


class TestBadPeriodProcessBehavior:
    def test_validation(self):
        with pytest.raises(ValueError):
            BadPeriodProcessBehavior(min_step_gap=0.0)
        with pytest.raises(ValueError):
            BadPeriodProcessBehavior(min_step_gap=3.0, max_step_gap=1.0)
        with pytest.raises(ValueError):
            BadPeriodProcessBehavior(stall_probability=1.0)

    def test_defaults_are_valid(self):
        behavior = BadPeriodProcessBehavior()
        assert behavior.min_step_gap <= behavior.max_step_gap
