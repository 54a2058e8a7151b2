"""Behavioural tests for the shared RoundEngine and its transports."""

from __future__ import annotations

import pytest

from repro.adversaries import FaultFreeOracle
from repro.algorithms import OneThirdRule
from repro.core.machine import HOMachine
from repro.core.types import HOCollection, RunTrace
from repro.rounds import (
    OracleTransport,
    RoundEngine,
    RoundRecord,
    StepTransport,
    mask_of,
)
from repro.sysmodel.trace import SystemRunTrace


def make_lockstep(n=4, oracle=None):
    algorithm = OneThirdRule(n)
    oracle = oracle if oracle is not None else FaultFreeOracle(n)
    trace = RunTrace(n=n, ho_collection=HOCollection(n))
    engine = RoundEngine(algorithm, OracleTransport(oracle, n), trace)
    states = {p: algorithm.initial_state(p, 10 * (p + 1)) for p in range(n)}
    return engine, states, trace


class TestOracleTransport:
    def test_clamps_sloppy_oracles(self):
        transport = OracleTransport(lambda r, p: [0, 1, 7, 9], 3)
        mask, received = transport.round_view(1, 0, ["a", "b", "c"])
        assert mask == mask_of({0, 1})
        assert dict(received) == {0: "a", 1: "b"}


class TestLockstepExecution:
    def test_execute_round_records_unified_schema(self):
        engine, states, trace = make_lockstep(n=3)
        engine.execute_round(1, states)
        assert len(trace.records) == 3
        record = trace.records[0]
        assert isinstance(record, RoundRecord)
        assert record.round == 1
        assert record.ho_set == frozenset({0, 1, 2})
        assert record.time == 1.0
        assert trace.messages_sent == 9
        assert trace.messages_delivered == 9

    def test_machine_and_engine_agree(self):
        n = 4
        machine = HOMachine(OneThirdRule(n), FaultFreeOracle(n), [1, 2, 3, 4])
        machine.run(3)
        assert machine.trace.rounds_executed() == 3
        assert machine.all_decided()
        # decisions are derived from the unified records
        assert machine.trace.decision_values() == machine.decisions()
        assert set(machine.trace.decision_times().values()) <= {1.0, 2.0, 3.0}


class TestStepTransport:
    def test_round_view_collects_only_the_requested_round(self):
        transport = StepTransport(3)
        transport.deposit(0, 1, 1, "r1-from-1")
        transport.deposit(0, 2, 2, "r2-from-2")
        mask, received = transport.round_view(1, 0)
        assert mask == mask_of({1})
        assert received == {1: "r1-from-1"}

    def test_advance_prunes_finished_rounds_only(self):
        transport = StepTransport(2)
        transport.deposit(0, 1, 1, "old")
        transport.deposit(0, 5, 1, "future")
        transport.advance(0, 3)
        assert transport.round_view(1, 0)[1] == {}
        assert transport.round_view(5, 0)[1] == {1: "future"}

    def test_reset_models_a_crash(self):
        transport = StepTransport(2)
        transport.deposit(1, 4, 0, "x")
        transport.reset(1)
        assert transport.round_view(4, 1)[1] == {}

    def test_mailboxes_are_per_process(self):
        transport = StepTransport(2)
        transport.deposit(0, 1, 1, "for-0")
        assert transport.round_view(1, 1)[1] == {}

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            StepTransport(0)


class TestStepModeFinishRounds:
    def test_finish_rounds_applies_skipped_rounds_with_empty_views(self):
        n = 3
        algorithm = OneThirdRule(n)
        trace = SystemRunTrace(n=n)
        transport = StepTransport(n)
        engine = RoundEngine(algorithm, transport, trace)
        state = algorithm.initial_state(0, 10)

        payload = engine.send_payload(1, 0, state)
        for sender in range(n):
            transport.deposit(0, 1, sender, payload)
        state = engine.finish_rounds(0, 1, 4, state, time=2.5)

        assert trace.ho_collection.ho(0, 1) == frozenset(range(n))
        assert trace.ho_collection.ho(0, 2) == frozenset()
        assert trace.ho_collection.ho(0, 3) == frozenset()
        assert trace.transition_times[(0, 1)] == 2.5
        assert trace.transition_times[(0, 3)] == 2.5
        # the unified records carry the same rounds
        assert [r.round for r in trace.records] == [1, 2, 3]
        # the mailbox was pruned up to the next round
        assert transport.round_view(1, 0)[1] == {}
