"""The upon-event adapter: EventProcess handlers driven as step programs.

Each process of these tests runs on the step-level SystemSimulator through
:class:`EventProgram`.  With ``phi = 1`` a process in a good period steps
at times 1, 2, 3, ...; a message between two of them is ready ``delta = 2``
after its send step.
"""

from __future__ import annotations

import pytest

from repro.failure_detectors import EventProcess, EventProgram
from repro.sysmodel import (
    BadPeriodNetwork,
    FaultSchedule,
    PeriodSchedule,
    SynchronyParams,
    SystemRunTrace,
    SystemSimulator,
)
from repro.sysmodel.process import ProcessRuntime, ReceiveStep, SendStep, StepResult

PARAMS = SynchronyParams(phi=1.0, delta=2.0)


class Echo(EventProcess):
    """Sends a hello to every other process, echoes each hello, arms one timer."""

    def __init__(self, process_id, n):
        super().__init__(process_id, n, PARAMS)
        self.received = []
        self.fired = []
        self.recovered = 0

    def on_start(self, ctx):
        for destination in range(self.n):
            if destination != self.process_id:
                ctx.send(destination, ("hello", self.process_id))
        ctx.set_timer(2.5, "tick")

    def on_message(self, ctx, sender, payload):
        self.received.append((sender, payload))
        if payload[0] == "hello":
            ctx.send(sender, ("echo", self.process_id))

    def on_timer(self, ctx, name):
        self.fired.append(name)
        ctx.decide(name)  # the decision records the time of the step

    def on_recover(self, ctx):
        self.recovered += 1
        ctx.stable_store("recovered", self.recovered)


class Decider(EventProcess):
    """Decides its own id in its first step, then tries to decide again."""

    def __init__(self, process_id, n):
        super().__init__(process_id, n, PARAMS)

    def on_start(self, ctx):
        ctx.decide(self.process_id)
        ctx.decide(self.process_id + 100)  # ignored: only the first decision counts


def simulate(processes, schedule=None, faults=None, loss=0.0, seed=1, until=60.0, scope=None):
    n = len(processes)
    trace = SystemRunTrace(n=n)
    simulator = SystemSimulator(
        [EventProgram(process, trace) for process in processes],
        PARAMS,
        PeriodSchedule.always_good(n) if schedule is None else schedule,
        fault_schedule=faults,
        bad_network=BadPeriodNetwork(loss_probability=loss, min_delay=1.0, max_delay=30.0),
        seed=seed,
        trace=trace,
    )
    stop_when = None if scope is None else (lambda: trace.all_decided(scope))
    simulator.run(until, stop_when=stop_when)
    return simulator


def always_bad(n):
    return PeriodSchedule(n=n, good_periods=[])


class TestDelivery:
    def test_messages_flow_and_are_counted(self):
        processes = [Echo(p, 3) for p in range(3)]
        trace = simulate(processes).trace
        for process in processes:
            kinds = [payload[0] for _, payload in process.received]
            assert kinds.count("hello") == 2
            assert kinds.count("echo") == 2
        assert trace.messages_sent == 12
        assert trace.messages_dropped == 0

    def test_each_send_is_one_unicast_send_step(self):
        trace = simulate([Echo(p, 3) for p in range(3)]).trace
        assert trace.total_send_steps == trace.messages_sent

    def test_a_lossy_bad_period_drops_messages(self):
        processes = [Echo(p, 3) for p in range(3)]
        simulator = simulate(processes, schedule=always_bad(3), loss=0.9, seed=3)
        assert simulator.trace.messages_dropped > 0
        delivered = sum(len(process.received) for process in processes)
        assert delivered == simulator.trace.messages_sent - simulator.trace.messages_dropped

    def test_same_seed_same_run(self):
        def run(seed):
            processes = [Echo(p, 3) for p in range(3)]
            trace = simulate(processes, schedule=always_bad(3), loss=0.5, seed=seed).trace
            return [p.received for p in processes], trace.messages_sent, trace.messages_dropped

        assert run(7) == run(7)


class TestTimers:
    def test_timer_fires_once_at_the_first_step_after_its_deadline(self):
        process = Echo(0, 1)
        trace = simulate([process]).trace
        # Armed in the first step (t = 1) for 2.5 later: due at 3.5, the step at 4 fires it.
        assert process.fired == ["tick"]
        assert trace.decisions[0].time == 4.0

    def test_negative_delay_is_rejected(self):
        class Impatient(EventProcess):
            def on_start(self, ctx):
                ctx.set_timer(-1.0, "never")

        with pytest.raises(ValueError):
            simulate([Impatient(0, 1, PARAMS)])


class TestCrashRecovery:
    def test_crashed_process_receives_nothing(self):
        processes = [Echo(p, 2) for p in range(2)]
        simulator = simulate(
            processes, schedule=always_bad(2), faults=FaultSchedule.crash_stop([(1, 0.0)])
        )
        assert processes[1].received == []
        assert not simulator.runtimes[1].up

    def test_recovery_runs_on_recover_with_stable_storage(self):
        processes = [Echo(p, 2) for p in range(2)]
        simulator = simulate(
            processes,
            schedule=always_bad(2),
            faults=FaultSchedule.crash_recovery([(1, 0.5, 10.0)]),
            until=200.0,
        )
        assert processes[1].recovered == 1
        assert simulator.runtimes[1].up
        assert simulator.runtimes[1].stats.crashes == 1
        assert simulator.runtimes[1].program.stable_storage.load("recovered") == 1
        # on_recover is not on_start: the recovered process never says hello,
        # but it receives again and answers the hello sent while it was down.
        assert processes[1].received == [(0, ("hello", 0))]
        assert processes[0].received == [(1, ("echo", 1))]

    def test_a_crash_drops_queued_sends_and_armed_timers(self):
        process = Echo(0, 3)
        runtime = ProcessRuntime(EventProgram(process, SystemRunTrace(n=3)))
        runtime.boot()
        runtime.complete_step(StepResult(1.0))  # on_start: two hellos queued, a timer armed
        assert runtime.next_action() == SendStep(("hello", 0), to=1)
        runtime.crash()
        runtime.recover()
        for time in (2.0, 3.0, 4.0, 5.0):
            assert runtime.next_action() == ReceiveStep()
            runtime.complete_step(StepResult(time))
        assert process.recovered == 1
        assert process.fired == []


class TestDecisions:
    def test_only_first_decision_is_recorded(self):
        trace = simulate([Decider(p, 2) for p in range(2)]).trace
        assert trace.decision_values() == {0: 0, 1: 1}
        assert {record.time for record in trace.decisions.values()} == {1.0}

    def test_run_stops_once_the_scope_decided(self):
        simulator = simulate([Decider(p, 2) for p in range(2)], until=1000.0, scope=range(2))
        assert simulator.now == 1.0

    def test_querying_without_a_detector_is_an_error(self):
        class Querier(EventProcess):
            def on_start(self, ctx):
                ctx.query_failure_detector()

        with pytest.raises(RuntimeError, match="no failure detector"):
            simulate([Querier(0, 1, PARAMS)])
