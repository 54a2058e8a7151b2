"""Unit tests for the SP/ST/DP/DT fault taxonomy (Section 2.2)."""

from __future__ import annotations

import pytest

from repro.analysis.taxonomy import (
    APPLICABILITY,
    FaultClass,
    FaultConfiguration,
    classify,
    communication_predicates_applicable,
    failure_detectors_applicable,
)
from repro.sysmodel.faults import FaultSchedule


def config(n=4, schedule=None, lossy=False, omissions=()):
    return FaultConfiguration(
        n=n,
        schedule=schedule if schedule is not None else FaultSchedule.none(),
        lossy_links=lossy,
        omission_processes=frozenset(omissions),
    )


class TestClassification:
    """One representative configuration per class is classified in
    ``tests/claims/test_taxonomy_matrix.py``; these are the other shapes."""

    def test_crash_stop_is_sp(self):
        schedule = FaultSchedule.crash_stop([(0, 1.0), (1, 5.0)])
        assert classify(config(schedule=schedule)) is FaultClass.SP

    def test_crash_recovery_of_everyone_is_dt(self):
        schedule = FaultSchedule.crash_recovery([(p, 1.0, 5.0) for p in range(4)])
        assert classify(config(schedule=schedule)) is FaultClass.DT

    def test_omissions_on_a_subset_are_st(self):
        assert classify(config(omissions=[2])) is FaultClass.ST

    def test_link_loss_is_dt(self):
        """A transmission fault can hit any process: dynamic and transient."""
        assert classify(config(lossy=True)) is FaultClass.DT

    def test_crashes_plus_link_loss_are_dt(self):
        schedule = FaultSchedule.crash_stop([(0, 1.0)])
        assert classify(config(schedule=schedule, lossy=True)) is FaultClass.DT

    def test_crashed_and_recovering_helpers(self):
        schedule = FaultSchedule(
            events=FaultSchedule.crash_recovery([(1, 1.0, 2.0)]).events
            + FaultSchedule.crash_stop([(3, 4.0)]).events
        )
        configuration = config(schedule=schedule)
        assert configuration.crashed_processes() == frozenset({1, 3})
        assert configuration.recovering_processes() == frozenset({1})


class TestClassificationEdgeCases:
    def test_empty_crash_stop_schedule_is_fault_free(self):
        """crash_stop([]) produces no events: nothing is faulty, not SP."""
        assert classify(config(schedule=FaultSchedule.crash_stop([]))) is FaultClass.NONE

    def test_single_crash_in_a_two_process_system_is_sp(self):
        """One permanent crash out of two: a strict static subset."""
        schedule = FaultSchedule.crash_stop([(0, 1.0)])
        assert classify(config(n=2, schedule=schedule)) is FaultClass.SP

    def test_crash_of_the_only_process_is_dp(self):
        """n=1: any crashed process means every process may crash -> dynamic."""
        schedule = FaultSchedule.crash_stop([(0, 1.0)])
        assert classify(config(n=1, schedule=schedule)) is FaultClass.DP

    def test_link_loss_only_is_dt_even_without_any_process_event(self):
        """Pure transmission faults are dynamic and transient by definition."""
        assert classify(config(schedule=FaultSchedule.none(), lossy=True)) is FaultClass.DT

    def test_omissions_on_everyone_are_dt(self):
        assert classify(config(omissions=range(4))) is FaultClass.DT

    def test_recovering_subset_plus_permanent_crashes_stays_transient(self):
        """Mixed permanent + transient faults on a subset classify as ST."""
        schedule = FaultSchedule(
            events=FaultSchedule.crash_recovery([(0, 1.0, 2.0)]).events
            + FaultSchedule.crash_stop([(1, 3.0)]).events
        )
        assert classify(config(schedule=schedule)) is FaultClass.ST

    def test_link_loss_dominates_a_static_crash_subset(self):
        """Adding lossy links to SP crashes lifts the class to DT, never ST."""
        schedule = FaultSchedule.crash_stop([(0, 1.0)])
        configuration = config(schedule=schedule, lossy=True)
        assert classify(configuration) is FaultClass.DT
        assert not failure_detectors_applicable(classify(configuration))


class TestApplicability:
    def test_failure_detectors_cover_only_sp(self):
        assert failure_detectors_applicable(FaultClass.NONE)
        assert failure_detectors_applicable(FaultClass.SP)
        assert not failure_detectors_applicable(FaultClass.ST)
        assert not failure_detectors_applicable(FaultClass.DP)
        assert not failure_detectors_applicable(FaultClass.DT)

    def test_communication_predicates_cover_every_class(self):
        for fault_class in FaultClass:
            assert communication_predicates_applicable(fault_class)

    def test_matrix_is_total(self):
        assert set(APPLICABILITY) == set(FaultClass)
