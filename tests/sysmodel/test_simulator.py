"""Unit and behavioural tests for the step-level discrete-event simulator."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.sysmodel.faults import BadPeriodProcessBehavior, FaultSchedule
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

    def test_cannot_run_backwards(self):
        simulator, _ = make_simulator()
        simulator.run(until=10.0)
        with pytest.raises(ValueError):
            simulator.run(until=5.0)


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
