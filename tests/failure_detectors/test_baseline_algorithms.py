"""Behavioural tests of the Chandra-Toueg and Aguilera et al. baselines.

Both run as step programs on the step-level simulator.  These tests
reproduce the qualitative claims of Section 2 / Appendix A:

* Chandra-Toueg solves consensus in the crash-stop model with reliable
  links and ◇S (even when the first coordinators crash or are wrongly
  suspected for a while);
* it stops terminating -- but stays safe -- under message loss or
  crash-recovery;
* Aguilera et al. solves consensus in the crash-recovery model with lossy
  links, stable storage and ◇Su.

A bad period (asynchronous steps and links, loss *loss*) lasts until
*good_from*; the detectors stabilise when the good period starts.
"""

from __future__ import annotations

from repro.failure_detectors import (
    EventProgram,
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
    build_aguilera_processes,
    build_chandra_toueg_processes,
)
from repro.sysmodel import (
    BadPeriodNetwork,
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemRunTrace,
    SystemSimulator,
)
from repro.workloads import run_chandra_toueg

PARAMS = SynchronyParams(phi=1.0, delta=2.0)


def run_baseline(
    build,
    detector_class,
    n=4,
    good_from=0.0,
    pi0=None,
    faults=None,
    loss=0.0,
    until=480.0,
    scope=None,
    seed=1,
    schedule=None,
):
    values = list(range(1, n + 1))
    trace = SystemRunTrace(n=n)
    programs = [EventProgram(process, trace) for process in build(n, values, PARAMS)]
    if schedule is None and good_from == 0.0:
        schedule = PeriodSchedule.always_good(n)
    elif schedule is None:
        schedule = PeriodSchedule.single_good_period(
            n, start=good_from, length=until - good_from, kind=GoodPeriodKind.PI0_DOWN, pi0=pi0
        )
    simulator = SystemSimulator(
        programs,
        PARAMS,
        schedule,
        fault_schedule=faults,
        bad_network=BadPeriodNetwork(loss_probability=loss, min_delay=1.0, max_delay=30.0),
        seed=seed,
        trace=trace,
    )
    detector = detector_class(simulator, seed)
    for program in programs:
        program.detector = detector
    scope = range(n) if scope is None else scope
    simulator.run(until, stop_when=lambda: trace.all_decided(scope))
    return trace, values


def run_ct(**kwargs):
    return run_baseline(build_chandra_toueg_processes, EventuallyStrongDetector, **kwargs)


def run_aguilera(**kwargs):
    return run_baseline(build_aguilera_processes, EventuallyStrongRecoveryDetector, **kwargs)


def assert_consensus(trace, values, scope):
    decisions = trace.decision_values()
    assert set(scope).issubset(decisions), f"missing decisions: {decisions}"
    assert len(set(decisions.values())) == 1
    assert set(decisions.values()) <= set(values)


class TestChandraTouegCrashStop:
    """Crash-stop on loss-free links: the model the algorithm is written for."""

    def test_fault_free_run(self):
        trace, values = run_ct(n=4)
        assert_consensus(trace, values, scope=range(4))

    def test_crashed_coordinator_is_worked_around(self):
        # Process 0 coordinates round 1 and crashes before its first step.
        trace, values = run_ct(
            n=5, good_from=15.0, pi0={1, 2, 3, 4}, faults=FaultSchedule.crash_stop([(0, 0.2)]),
            scope=range(1, 5), seed=3,
        )
        assert_consensus(trace, values, scope=range(1, 5))

    def test_tolerates_minority_of_crashes(self):
        trace, values = run_ct(
            n=5, good_from=15.0, pi0={1, 2, 3},
            faults=FaultSchedule.crash_stop([(0, 0.2), (4, 1.0)]), scope=[1, 2, 3], seed=4,
        )
        assert_consensus(trace, values, scope=[1, 2, 3])

    def test_wrong_suspicions_delay_but_do_not_break(self):
        trace, values = run_ct(n=4, good_from=25.0, seed=5)
        assert_consensus(trace, values, scope=range(4))

    def test_decisions_are_unanimous_across_seeds(self):
        for seed in range(4):
            trace, values = run_ct(n=4, good_from=25.0, seed=seed)
            assert len(set(trace.decision_values().values())) <= 1


class TestChandraTouegLimitations:
    """The limitations the paper attributes to the failure-detector approach."""

    def test_blocks_under_message_loss_but_stays_safe(self):
        # No good period: links lose 40 % of the messages for the whole run.
        trace, values = run_ct(
            n=4, schedule=PeriodSchedule(n=4, good_periods=[]), loss=0.4, until=200.0, seed=2
        )
        decisions = trace.decision_values()
        # Without reliable links the algorithm may block: some process never
        # decides within the horizon.  Safety is never violated.
        assert len(set(decisions.values())) <= 1
        assert len(decisions) < 4

    def test_blocks_under_crash_recovery(self):
        # Every process crashes once in the bad period; in the crash-stop
        # algorithm a crashed process loses its volatile state and stops
        # participating, so the quorum of "correct" processes is gone.
        result = run_chandra_toueg("crash-recovery", n=4, seed=2)
        assert result.safe
        assert not result.verdict.termination


class TestAguileraCrashRecovery:
    def test_fault_free_run(self):
        trace, values = run_aguilera(n=4)
        assert_consensus(trace, values, scope=range(4))

    def test_crash_recovery_with_lossy_links(self):
        n = 5
        trace, values = run_aguilera(
            n=n, good_from=30.0, faults=FaultSchedule.crash_recovery([(0, 2.0, 20.0), (2, 4.0, 25.0)]),
            loss=0.2, seed=4,
        )
        assert_consensus(trace, values, scope=range(n))

    def test_every_process_crashes_and_recovers(self):
        # The crashes come after the processes' first steps: a process that
        # crashes before its first step never proposed, and stays out.
        n = 4
        trace, values = run_aguilera(
            n=n, good_from=40.0,
            faults=FaultSchedule.crash_recovery([(p, 10.0 + 2 * p, 20.0 + 2 * p) for p in range(n)]),
            loss=0.2, seed=6,
        )
        assert_consensus(trace, values, scope=range(n))

    def test_permanently_crashed_minority_is_tolerated(self):
        n = 5
        trace, values = run_aguilera(
            n=n, good_from=20.0, pi0=range(4), faults=FaultSchedule.crash_stop([(4, 1.0)]),
            loss=0.1, scope=range(4), seed=7,
        )
        assert_consensus(trace, values, scope=range(4))

    def test_decision_values_always_initial_values(self):
        for seed in range(3):
            trace, values = run_aguilera(n=4, good_from=40.0, loss=0.3, seed=seed)
            for value in trace.decision_values().values():
                assert value in values
