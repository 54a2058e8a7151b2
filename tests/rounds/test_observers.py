"""Tests for the RoundEngine observer hook on both transport paths."""

from __future__ import annotations

from repro.algorithms import OneThirdRule
from repro.core.machine import HOMachine
from repro.core.types import HOCollection, RunTrace
from repro.predicates import MonitorBank, PSuMonitor, build_monitor
from repro.rounds.engine import OracleTransport, RoundEngine, RoundObserver, StepTransport


class RecordingObserver:
    """The smallest possible observer: remembers every record it was fed."""

    def __init__(self):
        self.records = []

    def on_record(self, record):
        self.records.append(record)


class StopImmediately:
    def __init__(self):
        self.stop_requested = True

    def on_record(self, record):
        pass


def full_oracle(round, process):
    return range(4)


class TestLockstepObservers:
    def test_observers_see_every_record_the_sink_sees(self):
        n = 4
        observer = RecordingObserver()
        machine = HOMachine(
            OneThirdRule(n), full_oracle, [1, 2, 3, 4], observers=[observer]
        )
        machine.run(3)
        assert len(observer.records) == len(machine.trace.records) == 3 * n
        assert [
            (r.process, r.round, r.ho_mask) for r in observer.records
        ] == [(r.process, r.round, r.ho_mask) for r in machine.trace.records]

    def test_observer_protocol_is_runtime_checkable(self):
        assert isinstance(RecordingObserver(), RoundObserver)
        assert isinstance(MonitorBank(2, []), RoundObserver)

    def test_add_observer_after_construction(self):
        n = 3
        trace = RunTrace(n=n, ho_collection=HOCollection(n))
        engine = RoundEngine(OneThirdRule(n), OracleTransport(full_oracle, n), trace)
        observer = RecordingObserver()
        engine.add_observer(observer)
        states = {p: OneThirdRule(n).initial_state(p, p) for p in range(n)}
        engine.execute_round(1, states)
        assert len(observer.records) == n

    def test_stop_requested_aggregates_observers(self):
        n = 3
        trace = RunTrace(n=n, ho_collection=HOCollection(n))
        engine = RoundEngine(OneThirdRule(n), OracleTransport(full_oracle, n), trace)
        assert not engine.stop_requested
        engine.add_observer(RecordingObserver())  # no stop_requested attribute
        assert not engine.stop_requested
        engine.add_observer(StopImmediately())
        assert engine.stop_requested

    def test_run_until_decision_honours_stop_policies(self):
        n = 4
        bank = MonitorBank(n, [PSuMonitor(n)], stop_after_held=1)
        # With distinct initial values OneThirdRule needs two fault-free
        # rounds to decide; the fault-free oracle is space uniform from
        # round 1, so the held-for-1 rule stops the machine first.
        machine = HOMachine(OneThirdRule(n), full_oracle, [1, 2, 3, 4], observers=[bank])
        machine.run_until_decision(max_rounds=50)
        assert bank.stop_requested
        assert machine.current_round == 1
        assert not machine.decisions()

    def test_observers_do_not_change_the_trace(self):
        n = 4
        values = [1, 2, 3, 4]
        plain = HOMachine(OneThirdRule(n), full_oracle, values)
        observed = HOMachine(
            OneThirdRule(n), full_oracle, values, observers=[RecordingObserver()]
        )
        plain.run(3)
        observed.run(3)
        assert plain.trace.records == observed.trace.records


class EchoAlgorithm:
    """A minimal RoundAlgorithm: payloads are opaque, state is the round."""

    def __init__(self, n):
        self.n = n

    def initial_state(self, process, value):
        return value

    def send(self, round, process, state):
        return ("payload", round, process)

    def transition(self, round, process, state, received):
        return (round, len(received))

    def decision(self, state):
        return None


class TestStepPathObservers:
    def test_finish_rounds_feeds_observers_including_skipped_rounds(self):
        n = 2
        algorithm = EchoAlgorithm(n)
        trace = RunTrace(n=n, ho_collection=HOCollection(n))
        transport = StepTransport(n)
        observer = RecordingObserver()
        engine = RoundEngine(algorithm, transport, trace, observers=[observer])
        state = algorithm.initial_state(0, 1)
        payload = engine.send_payload(1, 0, state)
        transport.deposit(0, 1, 0, payload)
        transport.deposit(0, 1, 1, "other")
        # finish round 1 and jump to round 4: rounds 2 and 3 are skipped
        # (executed with the empty view) and must reach observers too
        engine.finish_rounds(0, 1, 4, state, time=0.5)
        assert [(r.round, r.ho_mask) for r in observer.records] == [
            (1, 0b11),
            (2, 0),
            (3, 0),
        ]

    def test_monitor_bank_collates_step_records_across_processes(self):
        n = 2
        algorithm = EchoAlgorithm(n)
        trace = RunTrace(n=n, ho_collection=HOCollection(n))
        transport = StepTransport(n)
        bank = MonitorBank(n, [build_monitor("p_k", n, pi0={0, 1})])
        engine = RoundEngine(algorithm, transport, trace, observers=[bank])
        states = {p: algorithm.initial_state(p, p + 1) for p in range(n)}
        for p in range(n):
            payload = engine.send_payload(1, p, states[p])
            for q in range(n):
                transport.deposit(q, 1, p, payload)
        # processes finish round 1 at their own pace; the bank completes the
        # round only once both records arrived
        engine.finish_rounds(0, 1, 2, states[0], time=1.0)
        assert bank.monitors[0].rounds_observed == 0  # round 1 still incomplete
        engine.finish_rounds(1, 1, 2, states[1], time=1.2)
        report = bank.reports()["p_k"]
        assert report.rounds_observed == 1
        assert report.good_rounds == 1
