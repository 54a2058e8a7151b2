"""Unit tests for the ◇S and ◇Su failure-detector oracles on the step-level simulator."""

from __future__ import annotations

import math

import pytest

from repro.failure_detectors import (
    EventProcess,
    EventProgram,
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
)
from repro.sysmodel import (
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemRunTrace,
    SystemSimulator,
)

PARAMS = SynchronyParams(phi=1.0, delta=2.0)


def make_simulator(n=4, good_from=100.0, pi0=None, faults=None):
    """Idle processes: a bad period until *good_from*, then a pi0-down good period."""
    trace = SystemRunTrace(n=n)
    schedule = PeriodSchedule.single_good_period(
        n, start=good_from, length=400.0, kind=GoodPeriodKind.PI0_DOWN, pi0=pi0
    )
    programs = [EventProgram(EventProcess(p, n, PARAMS), trace) for p in range(n)]
    return SystemSimulator(programs, PARAMS, schedule, fault_schedule=faults, trace=trace)


class TestStabilisation:
    def test_the_good_period_fixes_when_and_who(self):
        simulator = make_simulator(good_from=30.0, pi0={0, 1, 3})
        detector = EventuallyStrongRecoveryDetector(simulator, seed=0)
        assert detector.stabilization_time == 30.0
        assert detector.eventually_up == frozenset({0, 1, 3})

    def test_an_initial_good_period_is_stable_from_the_start(self):
        trace = SystemRunTrace(n=2)
        programs = [EventProgram(EventProcess(p, 2, PARAMS), trace) for p in range(2)]
        simulator = SystemSimulator(programs, PARAMS, PeriodSchedule.always_good(2), trace=trace)
        assert EventuallyStrongDetector(simulator, seed=0).stabilization_time == 0.0

    def test_without_a_good_period_it_never_stabilises(self):
        trace = SystemRunTrace(n=2)
        programs = [EventProgram(EventProcess(p, 2, PARAMS), trace) for p in range(2)]
        simulator = SystemSimulator(
            programs, PARAMS, PeriodSchedule(n=2, good_periods=[]), trace=trace
        )
        detector = EventuallyStrongRecoveryDetector(simulator, seed=0)
        assert detector.stabilization_time == math.inf
        assert detector.eventually_up == frozenset()


class TestEventuallyStrong:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventuallyStrongDetector(make_simulator(), seed=0, false_suspicion_probability=2.0)

    def test_after_stabilization_suspects_exactly_the_crashed(self):
        simulator = make_simulator(good_from=5.0, pi0={0, 1, 3},
                                   faults=FaultSchedule.crash_stop([(2, 0.0)]))
        simulator.run(until=10.0)
        detector = EventuallyStrongDetector(simulator, seed=0)
        assert detector(0) == frozenset({2})

    def test_before_stabilization_crashed_processes_are_still_suspected(self):
        """Strong completeness holds from the start; only accuracy is eventual."""
        simulator = make_simulator(faults=FaultSchedule.crash_stop([(1, 0.0)]))
        simulator.run(until=2.0)
        detector = EventuallyStrongDetector(simulator, seed=1, false_suspicion_probability=0.5)
        for querying_process in range(4):
            assert 1 in detector(querying_process)

    def test_before_stabilization_false_suspicions_happen(self):
        detector = EventuallyStrongDetector(
            make_simulator(), seed=1, false_suspicion_probability=1.0
        )
        suspects = detector(0)
        assert suspects == frozenset({1, 2, 3})
        # The querying process never suspects itself.
        assert 0 not in suspects

    def test_never_false_suspicions_when_probability_zero(self):
        detector = EventuallyStrongDetector(
            make_simulator(), seed=1, false_suspicion_probability=0.0
        )
        assert detector(0) == frozenset()

    def test_noise_is_a_function_of_the_seed(self):
        def draws(seed):
            detector = EventuallyStrongDetector(make_simulator(), seed=seed)
            return [detector(p % 4) for p in range(12)]

        assert draws(3) == draws(3)


class TestEventuallyStrongRecovery:
    def test_after_stabilization_trusts_exactly_the_good_up_processes(self):
        faults = FaultSchedule(
            events=FaultSchedule.crash_stop([(1, 0.0)]).events
            + FaultSchedule.crash_recovery([(2, 0.0, 5.0)]).events
        )
        simulator = make_simulator(good_from=10.0, pi0={0, 2, 3}, faults=faults)
        simulator.run(until=20.0)
        output = EventuallyStrongRecoveryDetector(simulator, seed=0)(0)
        # 1 crashed for good; 0, 2, 3 are good (2 recovered).
        assert output.trustlist == frozenset({0, 2, 3})
        assert output.trusts(0)
        assert not output.trusts(1)

    def test_epochs_count_crashes(self):
        simulator = make_simulator(
            good_from=10.0, faults=FaultSchedule.crash_recovery([(2, 1.0, 5.0)])
        )
        simulator.run(until=20.0)
        output = EventuallyStrongRecoveryDetector(simulator, seed=0)(0)
        assert output.epoch[2] == 1
        assert output.epoch[0] == 0

    def test_before_stabilization_output_is_noisy_but_self_trusting(self):
        detector = EventuallyStrongRecoveryDetector(
            make_simulator(), seed=3, mistrust_probability=0.9
        )
        assert detector(1).trusts(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventuallyStrongRecoveryDetector(make_simulator(), seed=0, mistrust_probability=1.5)
