"""Unit and behavioural tests for the step-level discrete-event simulator."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.sysmodel.faults import (
    BadPeriodProcessBehavior,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.sysmodel.network import BadPeriodNetwork, Envelope
from repro.sysmodel.params import SynchronyParams
from repro.sysmodel.periods import GoodPeriodKind, PeriodSchedule
from repro.sysmodel.process import ReceiveStep, SendStep, StepProgram
from repro.sysmodel.simulator import SystemSimulator
from repro.sysmodel.trace import SystemRunTrace


class ChattyProgram(StepProgram):
    """Test program: send a sequence number, then drain one message; repeat.

    Records every step time and every received (sender, payload, time) so
    that tests can make assertions about synchrony and delivery.
    """

    def __init__(self, process_id, n):
        super().__init__(process_id, n)
        self.step_times = []
        self.received = []
        self.send_counter = 0

    def program(self):
        while True:
            self.send_counter += 1
            result = yield SendStep(payload=(self.process_id, self.send_counter))
            self.step_times.append(result.time)
            result = yield ReceiveStep()
            self.step_times.append(result.time)
            if result.envelope is not None:
                self.received.append(
                    (result.envelope.sender, result.envelope.payload, result.time)
                )

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        return buffered[0] if buffered else None


def make_simulator(n=3, schedule=None, programs=None, **kwargs):
    params = SynchronyParams(phi=1.0, delta=2.0)
    if schedule is None:
        schedule = PeriodSchedule.always_good(n)
    if programs is None:
        programs = [ChattyProgram(p, n) for p in range(n)]
    trace = SystemRunTrace(n=n)
    simulator = SystemSimulator(
        programs=programs, params=params, schedule=schedule, trace=trace, **kwargs
    )
    return simulator, programs


class TestConstruction:
    def test_requires_programs(self):
        params = SynchronyParams(phi=1.0, delta=1.0)
        with pytest.raises(ValueError):
            SystemSimulator([], params, PeriodSchedule.always_good(1))

    def test_schedule_size_must_match(self):
        params = SynchronyParams(phi=1.0, delta=1.0)
        with pytest.raises(ValueError):
            SystemSimulator(
                [ChattyProgram(0, 1)], params, PeriodSchedule.always_good(2)
            )

    def test_good_step_gap_must_respect_phi(self):
        params = SynchronyParams(phi=2.0, delta=1.0)
        with pytest.raises(ValueError):
            SystemSimulator(
                [ChattyProgram(0, 1)],
                params,
                PeriodSchedule.always_good(1),
                good_step_gap=3.0,
            )

    @pytest.mark.parametrize("process", [-1, 3])
    def test_fault_events_must_name_a_process(self, process):
        faults = FaultSchedule(events=[FaultEvent(5.0, FaultKind.CRASH, process)])
        programs = [ChattyProgram(p, 3) for p in range(3)]
        with pytest.raises(ValueError, match="outside 0..2"):
            make_simulator(n=3, programs=programs, fault_schedule=faults)
        assert [program.step_times for program in programs] == [[], [], []]

    @pytest.mark.parametrize("process", [-1, 3])
    def test_recovery_events_must_name_a_process(self, process):
        faults = FaultSchedule(events=[FaultEvent(5.0, FaultKind.RECOVER, process)])
        with pytest.raises(ValueError, match="outside 0..2"):
            make_simulator(n=3, fault_schedule=faults)


def lockstep_bad_period(**kwargs):
    """Two processes in one endless bad period, each stepping at t = 1, 2, 3, ..."""
    return make_simulator(
        n=2,
        schedule=PeriodSchedule(n=2, good_periods=[]),
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=1.0, stall_probability=0.0
        ),
        **kwargs,
    )


class TestEventLoop:
    def test_equal_time_events_run_in_scheduling_order(self):
        # The first steps are queued before the fault events, so a crash at
        # exactly the first step's time applies after that step.
        simulator, programs = lockstep_bad_period(
            fault_schedule=FaultSchedule.crash_stop([(1, 1.0)])
        )
        simulator.run(until=5.0)
        assert programs[1].step_times == [1.0]
        assert programs[0].step_times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert simulator.trace.crashes == 1

    def test_an_event_at_the_horizon_runs_and_the_clock_ends_there(self):
        simulator, programs = lockstep_bad_period()
        simulator.run(until=3.0)
        assert [program.step_times for program in programs] == [[1.0, 2.0, 3.0]] * 2
        assert simulator.now == 3.0
        simulator.run(until=4.5)
        assert programs[0].step_times == [1.0, 2.0, 3.0, 4.0]
        assert simulator.now == 4.5  # advanced to the horizon past the last event

    def test_a_stop_condition_already_true_runs_nothing(self):
        simulator, programs = lockstep_bad_period()
        trace = simulator.run(until=10.0, stop_when=lambda: True)
        assert [program.step_times for program in programs] == [[], []]
        assert trace.total_send_steps == trace.total_receive_steps == 0
        assert simulator.now == 0.0

    def test_a_stopped_run_resumes_into_the_unstopped_run(self):
        def run(stop_after):
            simulator, programs = make_simulator(
                n=3,
                schedule=PeriodSchedule.single_good_period(
                    3, start=25.0, length=30.0, kind=GoodPeriodKind.PI0_DOWN, pi0=[0, 1]
                ),
                seed=4,
                fault_schedule=FaultSchedule.crash_recovery([(2, 6.0, 14.0)]),
                bad_network=BadPeriodNetwork(loss_probability=0.3, min_delay=0.5, max_delay=9.0),
            )
            if stop_after is not None:
                simulator.run(
                    until=60.0, stop_when=lambda: len(programs[0].step_times) >= stop_after
                )
                # The clock stays at the event that fired the stop.
                assert simulator.now == programs[0].step_times[-1] < 60.0
            trace = simulator.run(until=60.0)
            assert simulator.now == 60.0
            return (
                [program.step_times for program in programs],
                [program.received for program in programs],
                trace.messages_sent,
                trace.messages_dropped,
                trace.crashes,
                trace.recoveries,
            )

        assert run(None) == run(5) == run(1)

    def test_cannot_run_backwards(self):
        simulator, _ = make_simulator()
        simulator.run(until=10.0)
        with pytest.raises(ValueError):
            simulator.run(until=5.0)
        assert simulator.now == 10.0


class TestSynchronousExecution:
    def test_steps_happen_every_phi_in_good_periods(self):
        simulator, programs = make_simulator(n=2)
        simulator.run(until=10.0)
        for program in programs:
            times = program.step_times
            assert times, "process took no steps"
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap == pytest.approx(1.0) for gap in gaps)

    def test_messages_delivered_and_never_dropped_between_pi0_processes(self):
        simulator, programs = make_simulator(n=2)
        simulator.run(until=30.0)
        # In a good period nothing is ever dropped, and receptions happen at
        # or after the (delta-bounded) make-ready time of the message.  Note
        # that reception can lag behind make-ready: a receive step consumes a
        # single message, so the buffer may queue up (the paper's model needs
        # n receive steps for n messages).
        assert simulator.network.messages_dropped == 0
        assert simulator.trace.messages_dropped == 0
        for program in programs:
            assert program.received, "no messages were ever received"
            for sender, payload, receive_time in program.received:
                # payload = (sender, sequence); with step gap 1.0 the k-th
                # send of a process happened at time 2k - 1.
                send_time = 2 * payload[1] - 1
                assert receive_time >= send_time

    def test_channel_noise_never_perturbs_step_timing(self):
        # Step gaps draw from the ``steps`` stream, link delay and loss from
        # the ``network`` stream: a different channel leaves the steps alone.
        def step_times(bad_network):
            simulator, programs = make_simulator(
                n=3,
                schedule=PeriodSchedule(n=3, good_periods=[]),
                seed=9,
                bad_network=bad_network,
                bad_process_behavior=BadPeriodProcessBehavior(
                    min_step_gap=1.0, max_step_gap=3.0, stall_probability=0.2
                ),
            )
            simulator.run(until=40.0)
            return [program.step_times for program in programs]

        quiet = step_times(BadPeriodNetwork(loss_probability=0.0, min_delay=1.0, max_delay=1.0))
        noisy = step_times(BadPeriodNetwork(loss_probability=0.7, min_delay=0.5, max_delay=9.0))
        assert quiet == noisy
        gaps = {round(b - a, 9) for times in quiet for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # the gaps really are drawn

    def test_deterministic_given_seed(self):
        simulator_a, programs_a = make_simulator(n=3, seed=5)
        simulator_b, programs_b = make_simulator(n=3, seed=5)
        simulator_a.run(until=40.0)
        simulator_b.run(until=40.0)
        assert [p.step_times for p in programs_a] == [p.step_times for p in programs_b]
        assert [p.received for p in programs_a] == [p.received for p in programs_b]


class TestPi0DownPeriods:
    def test_outside_processes_are_crashed_and_purged(self):
        n = 3
        pi0 = [0, 1]
        schedule = PeriodSchedule.single_good_period(
            n, start=20.0, length=50.0, kind=GoodPeriodKind.PI0_DOWN, pi0=pi0
        )
        simulator, programs = make_simulator(n=n, schedule=schedule, seed=3)
        simulator.run(until=70.0)
        assert not simulator.runtimes[2].up
        # After the period starts, process 2 takes no further steps.
        late_steps = [t for t in programs[2].step_times if t >= 20.0]
        assert late_steps == []
        # Processes 0 and 1 never receive anything from process 2 during the
        # good period (its in-transit messages were purged).
        for program in programs[:2]:
            for sender, _, receive_time in program.received:
                if receive_time >= 20.0 + 2.0:  # allow delta slack at the boundary
                    assert sender != 2

    def test_pi0_processes_recover_at_period_start(self):
        n = 2
        schedule = PeriodSchedule.single_good_period(
            n, start=30.0, length=40.0, kind=GoodPeriodKind.PI0_DOWN, pi0=[0, 1]
        )
        faults = FaultSchedule.crash_stop([(1, 5.0)])
        simulator, programs = make_simulator(n=n, schedule=schedule, fault_schedule=faults, seed=1)
        simulator.run(until=70.0)
        assert simulator.runtimes[1].up
        assert simulator.runtimes[1].stats.recoveries == 1
        # It took steps again during the good period.
        assert any(t >= 30.0 for t in programs[1].step_times)


class TestFaultInjection:
    def test_crash_stop_process_stops_stepping(self):
        n = 2
        schedule = PeriodSchedule(n=n, good_periods=[])  # a single endless bad period
        faults = FaultSchedule.crash_stop([(1, 10.0)])
        simulator, programs = make_simulator(
            n=n,
            schedule=schedule,
            fault_schedule=faults,
            seed=2,
            bad_process_behavior=BadPeriodProcessBehavior(
                min_step_gap=1.0, max_step_gap=2.0, stall_probability=0.0
            ),
        )
        simulator.run(until=50.0)
        assert not simulator.runtimes[1].up
        assert all(t <= 10.0 for t in programs[1].step_times)
        assert simulator.trace.crashes == 1

    def test_crash_recovery_process_resumes(self):
        n = 2
        schedule = PeriodSchedule(n=n, good_periods=[])
        faults = FaultSchedule.crash_recovery([(0, 10.0, 20.0)])
        simulator, programs = make_simulator(
            n=n,
            schedule=schedule,
            fault_schedule=faults,
            seed=2,
            bad_process_behavior=BadPeriodProcessBehavior(
                min_step_gap=1.0, max_step_gap=2.0, stall_probability=0.0
            ),
        )
        simulator.run(until=60.0)
        assert simulator.runtimes[0].up
        assert simulator.trace.crashes == 1
        assert simulator.trace.recoveries == 1
        assert any(t > 20.0 for t in programs[0].step_times)
        assert not any(10.0 < t < 20.0 for t in programs[0].step_times)

    def test_faults_inside_good_periods_are_skipped(self):
        n = 2
        schedule = PeriodSchedule.always_good(n)
        faults = FaultSchedule.crash_stop([(0, 10.0)])
        simulator, _ = make_simulator(n=n, schedule=schedule, fault_schedule=faults)
        simulator.run(until=30.0)
        assert simulator.runtimes[0].up
        assert len(simulator.skipped_fault_events) == 1


class TestBadPeriods:
    def test_bad_network_can_lose_everything(self):
        n = 2
        schedule = PeriodSchedule(n=n, good_periods=[])
        simulator, programs = make_simulator(
            n=n,
            schedule=schedule,
            seed=4,
            bad_network=BadPeriodNetwork(loss_probability=1.0),
            bad_process_behavior=BadPeriodProcessBehavior(
                min_step_gap=1.0, max_step_gap=1.0, stall_probability=0.0
            ),
        )
        simulator.run(until=50.0)
        for program in programs:
            assert program.received == []
        assert simulator.trace.messages_dropped > 0

    def test_trace_accounting(self):
        simulator, _ = make_simulator(n=2)
        trace = simulator.run(until=20.0)
        assert trace.total_send_steps > 0
        assert trace.total_receive_steps > 0
        assert trace.messages_sent == 2 * trace.total_send_steps  # broadcast to n=2

    def test_drop_counter_has_one_owner_across_run_segments(self):
        """The network counts lost copies; the trace mirrors it after every
        ``run()`` segment -- neither double-counted nor reset in between."""
        n = 3
        schedule = PeriodSchedule.single_good_period(
            n, start=40.0, length=40.0, kind=GoodPeriodKind.PI0_DOWN
        )
        simulator, _ = make_simulator(
            n=n,
            schedule=schedule,
            seed=7,
            bad_network=BadPeriodNetwork(loss_probability=0.5, min_delay=1.0, max_delay=8.0),
        )
        trace = simulator.run(until=20.0)
        first = simulator.network.messages_dropped
        assert first > 0
        assert trace.messages_dropped == first
        trace = simulator.run(until=80.0)
        assert simulator.network.messages_dropped > first
        assert trace.messages_dropped == simulator.network.messages_dropped
        # Every copy is either lost, made ready, purged or still in transit.
        assert trace.messages_sent == simulator.network.messages_sent
        assert trace.messages_dropped < trace.messages_sent

    def test_segmented_run_equals_one_run(self):
        """Stopping at an intermediate horizon and resuming replays the same events."""

        def run(horizons):
            schedule = PeriodSchedule.single_good_period(
                3, start=25.0, length=30.0, kind=GoodPeriodKind.PI0_DOWN, pi0=[0, 1]
            )
            simulator, programs = make_simulator(
                n=3,
                schedule=schedule,
                seed=11,
                fault_schedule=FaultSchedule.crash_recovery([(1, 5.0, 12.0)]),
                bad_network=BadPeriodNetwork(loss_probability=0.3, min_delay=0.5, max_delay=9.0),
            )
            for until in horizons:
                trace = simulator.run(until=until)
            return (
                [program.step_times for program in programs],
                [program.received for program in programs],
                trace.messages_sent,
                trace.messages_dropped,
                trace.crashes,
                trace.recoveries,
            )

        assert run([70.0]) == run([10.0, 25.0, 25.0, 40.5, 70.0])


class IdleProgram(StepProgram):
    """Test program that terminates at once, so its steps do nothing."""

    def program(self):
        return
        yield  # pragma: no cover - makes this a generator

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        return None


def probe_simulator():
    """An idle one-process simulator plus a way to queue labelled probe events.

    With ``phi = 1000`` the process's first step lies far beyond every probe,
    so the probes see the event loop alone.  ``schedule(time, label, then)``
    queues a probe; handling it appends ``(now, label)`` to ``seen`` and
    calls ``then()`` if given.
    """
    simulator = SystemSimulator(
        [IdleProgram(0, 1)],
        SynchronyParams(phi=1000.0, delta=1.0),
        PeriodSchedule.always_good(1),
    )
    seen = []

    def handle(event):
        _, label, then = event
        seen.append((simulator.now, label))
        if then is not None:
            then()

    def schedule(time, label, then=None):
        simulator._schedule_event(time, (handle, label, then))

    return simulator, schedule, seen


def labels(seen):
    return [label for _, label in seen]


class TestEventQueue:
    def test_orders_by_time(self):
        simulator, schedule, seen = probe_simulator()
        schedule(3.0, "c")
        schedule(1.0, "a")
        schedule(2.0, "b")
        simulator.run(until=10.0)
        assert seen == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_fifo_among_equal_times(self):
        simulator, schedule, seen = probe_simulator()
        for label in "abcde":
            schedule(1.0, label)
        simulator.run(until=1.0)
        assert labels(seen) == list("abcde")

    def test_the_horizon_leaves_later_events_pending(self):
        simulator, schedule, seen = probe_simulator()
        schedule(1.0, "early")
        schedule(5.0, "late")
        simulator.run(until=2.0)
        assert seen == [(1.0, "early")]
        simulator.run(until=5.0)
        assert seen == [(1.0, "early"), (5.0, "late")]

    def test_events_scheduled_mid_drain_take_their_place(self):
        simulator, schedule, seen = probe_simulator()

        def after_a():
            schedule(2.0, "b")  # lands between the two pending ones
            schedule(1.0, "a2")  # same time as the event being handled

        schedule(1.0, "a", after_a)
        schedule(3.0, "c")
        simulator.run(until=3.0)
        assert labels(seen) == ["a", "a2", "b", "c"]

    def test_a_stopped_drain_leaves_the_rest_pending(self):
        simulator, schedule, seen = probe_simulator()
        for label in "abc":
            schedule(1.0, label)
        assert simulator.run(until=1.0, stop_when=lambda: bool(seen)) is simulator.trace
        assert labels(seen) == ["a"]
        simulator.run(until=1.0)
        assert labels(seen) == ["a", "b", "c"]


class TestRunLoop:
    def test_handles_in_order_and_advances_the_clock(self):
        simulator, schedule, seen = probe_simulator()
        schedule(2.0, "b")
        schedule(1.0, "a")
        schedule(9.0, "late")
        simulator.run(until=5.0)
        assert seen == [(1.0, "a"), (2.0, "b")]
        assert simulator.now == 5.0  # advanced to the horizon
        simulator.run(until=9.0)
        assert seen[-1] == (9.0, "late")  # the late event was still pending

    def test_stop_when_halts_early(self):
        simulator, schedule, seen = probe_simulator()
        for t in (1.0, 2.0, 3.0):
            schedule(t, t)
        simulator.run(until=10.0, stop_when=lambda: len(seen) >= 2)
        assert labels(seen) == [1.0, 2.0]
        assert simulator.now == 2.0  # the clock does NOT jump to the horizon

    def test_events_scheduled_while_handling_run(self):
        simulator, schedule, seen = probe_simulator()
        schedule(1.0, "first", lambda: schedule(simulator.now + 1.0, "second"))
        simulator.run(until=5.0)
        assert seen == [(1.0, "first"), (2.0, "second")]

    def test_an_equal_time_child_runs_after_its_queued_siblings(self):
        simulator, schedule, seen = probe_simulator()
        schedule(1.0, "a")
        # Scheduled for the very time being drained: runs after every event
        # already queued for that time, before anything later.
        schedule(1.0, "b", lambda: schedule(simulator.now, "b-child"))
        schedule(1.0, "c")
        schedule(2.0, "later")
        simulator.run(until=5.0)
        assert labels(seen) == ["a", "b", "c", "b-child", "later"]

    def test_until_exactly_on_an_event_time_includes_it(self):
        simulator, schedule, seen = probe_simulator()
        schedule(2.0, "on-the-horizon")
        schedule(2.5, "beyond")
        simulator.run(until=2.0)
        assert seen == [(2.0, "on-the-horizon")]
        assert simulator.now == 2.0
        simulator.run(until=3.0)
        assert seen[-1] == (2.5, "beyond")

    def test_stop_on_the_first_event_keeps_the_clock_and_the_queue(self):
        simulator, schedule, seen = probe_simulator()
        for t in (1.0, 1.0, 4.0):
            schedule(t, t)
        simulator.run(until=10.0, stop_when=lambda: bool(seen))
        assert labels(seen) == [1.0]
        assert simulator.now == 1.0  # not max(now, until): the run was stopped
        # A follow-up segment resumes with the pending sibling first.
        simulator.run(until=10.0)
        assert seen == [(1.0, 1.0), (1.0, 1.0), (4.0, 4.0)]
        assert simulator.now == 10.0

    def test_a_stop_condition_already_true_handles_nothing(self):
        simulator, schedule, seen = probe_simulator()
        schedule(1.0, "later")
        simulator.run(until=5.0, stop_when=lambda: True)
        assert seen == []
        assert simulator.now == 0.0
        simulator.run(until=5.0)
        assert seen == [(1.0, "later")]

    def test_an_empty_horizon_advances_the_clock(self):
        simulator, _, seen = probe_simulator()
        simulator.run(until=7.0)
        assert simulator.now == 7.0
        simulator.run(until=7.0)  # a horizon equal to now is allowed
        assert simulator.now == 7.0
        assert seen == []

    def test_past_events_do_not_move_the_clock_backwards(self):
        simulator, schedule, seen = probe_simulator()
        simulator.run(until=5.0)
        schedule(2.0, "stale")
        simulator.run(until=6.0)
        assert seen == [(5.0, "stale")]
        assert simulator.now == 6.0


class TestFaultHandling:
    def test_a_crash_and_its_recovery_flip_the_process_and_are_counted(self):
        simulator, programs = lockstep_bad_period(
            fault_schedule=FaultSchedule.crash_recovery([(1, 2.5, 5.5)])
        )
        simulator.run(until=10.0)
        # Steps at 1 and 2, down over (2.5, 5.5), then one gap after recovering.
        assert programs[1].step_times == [1.0, 2.0, 6.5, 7.5, 8.5, 9.5]
        assert simulator.runtimes[1].up
        stats = simulator.runtimes[1].stats
        assert (stats.crashes, stats.recoveries) == (1, 1)
        assert (simulator.trace.crashes, simulator.trace.recoveries) == (1, 1)
        assert simulator.skipped_fault_events == []

    def test_a_second_crash_of_a_down_process_changes_nothing(self):
        simulator, programs = lockstep_bad_period(
            fault_schedule=FaultSchedule.crash_stop([(1, 2.5), (1, 3.5)])
        )
        simulator.run(until=6.0)
        assert programs[1].step_times == [1.0, 2.0]
        assert simulator.runtimes[1].stats.crashes == 1
        assert simulator.trace.crashes == 1
        assert simulator.skipped_fault_events == []

    def test_recovering_an_up_process_changes_nothing(self):
        simulator, programs = lockstep_bad_period(
            fault_schedule=FaultSchedule(events=[FaultEvent(2.5, FaultKind.RECOVER, 1)])
        )
        simulator.run(until=5.0)
        assert programs[1].step_times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert simulator.runtimes[1].stats.recoveries == 0
        assert simulator.trace.recoveries == 0

    @pytest.mark.parametrize(
        "kinds, up",
        [((FaultKind.CRASH, FaultKind.RECOVER), True), ((FaultKind.RECOVER, FaultKind.CRASH), False)],
    )
    def test_equal_time_faults_apply_in_schedule_order(self, kinds, up):
        faults = FaultSchedule(events=[FaultEvent(3.5, kind, 1) for kind in kinds])
        simulator, _ = lockstep_bad_period(fault_schedule=faults)
        simulator.run(until=3.5)
        assert simulator.runtimes[1].up is up
        assert simulator.trace.crashes == 1
        assert simulator.trace.recoveries == (1 if up else 0)

    def test_a_vetoed_fault_is_recorded_and_not_applied(self):
        faults = FaultSchedule.crash_recovery([(0, 3.0, 6.0)])
        simulator, programs = make_simulator(n=2, fault_schedule=faults)
        simulator.run(until=10.0)
        assert simulator.skipped_fault_events == faults.events
        assert simulator.runtimes[0].up
        assert (simulator.trace.crashes, simulator.trace.recoveries) == (0, 0)
        assert programs[0].step_times == programs[1].step_times

    def test_a_crash_purges_the_messages_addressed_to_the_process(self):
        simulator, _ = lockstep_bad_period(
            fault_schedule=FaultSchedule.crash_stop([(1, 2.5)]),
            bad_network=BadPeriodNetwork(loss_probability=0.0, min_delay=10.0, max_delay=10.0),
        )
        simulator.run(until=2.5)
        network = simulator.network
        assert network.network[1] == [] and network.buffered(1) == []
        # Both processes sent at t = 1; the copies to the live process 0 are
        # still in transit, those to the crashed process 1 are gone.
        assert [envelope.sender for envelope in network.network[0]] == [0, 1]
