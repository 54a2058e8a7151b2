"""Unit tests for the round-level HO machine."""

from __future__ import annotations

import pytest

from repro.algorithms import OneThirdRule
from repro.adversaries import FaultFreeOracle, ScriptedOracle, StaticCrashOracle
from repro.core.machine import HOMachine


class TestHOMachineBasics:
    def test_initial_values_as_sequence_and_mapping(self):
        algorithm = OneThirdRule(3)
        oracle = FaultFreeOracle(3)
        machine_seq = HOMachine(algorithm, oracle, [1, 2, 3])
        machine_map = HOMachine(algorithm, oracle, {0: 1, 1: 2, 2: 3})
        assert machine_seq.state(0).x == 1
        assert machine_map.state(2).x == 3

    def test_missing_initial_values_rejected(self):
        algorithm = OneThirdRule(3)
        with pytest.raises(ValueError, match="missing initial values"):
            HOMachine(algorithm, FaultFreeOracle(3), [1, 2])

    def test_extra_initial_values_rejected(self):
        algorithm = OneThirdRule(3)
        with pytest.raises(ValueError, match="unknown processes"):
            HOMachine(algorithm, FaultFreeOracle(3), {0: 1, 1: 2, 2: 3, 5: 9})

    def test_run_round_advances_round_counter(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [1, 2, 3])
        assert machine.current_round == 0
        assert machine.run_round() == 1
        assert machine.run_round() == 2
        assert machine.current_round == 2

    def test_negative_round_count_rejected(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [1, 2, 3])
        with pytest.raises(ValueError):
            machine.run(-1)

    def test_trace_records_ho_sets_and_messages(self):
        n = 3
        machine = HOMachine(OneThirdRule(n), FaultFreeOracle(n), [1, 2, 3])
        trace = machine.run(2)
        assert trace.ho_collection.max_round == 2
        for p in range(n):
            assert trace.ho_collection.ho(p, 1) == frozenset(range(n))
        # n^2 messages per round were "sent", all delivered in a fault-free run.
        assert trace.messages_sent == 2 * n * n
        assert trace.messages_delivered == 2 * n * n

    def test_oracle_output_clamped_to_process_set(self):
        n = 3
        oracle = ScriptedOracle(n, {}, default=range(n))

        def sloppy_oracle(round, process):
            return {0, 1, 2, 99}  # 99 does not exist

        machine = HOMachine(OneThirdRule(n), sloppy_oracle, [1, 2, 3])
        trace = machine.run(1)
        assert trace.ho_collection.ho(0, 1) == frozenset({0, 1, 2})


class TestRunUntilDecision:
    def test_stops_as_soon_as_everyone_decided(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [5, 5, 5])
        trace = machine.run_until_decision(max_rounds=50)
        # Fault-free OneThirdRule decides in the very first round.
        assert machine.current_round == 1
        assert trace.decisions() == {0: 5, 1: 5, 2: 5}

    def test_respects_max_rounds(self):
        # With every process isolated, no one can ever decide.
        oracle = ScriptedOracle(3, {}, default=[])
        machine = HOMachine(OneThirdRule(3), oracle, [1, 2, 3])
        machine.run_until_decision(max_rounds=7)
        assert machine.current_round == 7
        assert machine.decisions() == {}

    def test_scope_limits_the_wait(self):
        n = 4
        # Process 3 crashes before round 1: it still runs locally but is
        # never heard of.  The others decide; scope={0,1,2} is enough.
        oracle = StaticCrashOracle(n, {3: 1})
        machine = HOMachine(OneThirdRule(n), oracle, [2, 2, 2, 9])
        machine.run_until_decision(max_rounds=20, scope=[0, 1, 2])
        decisions = machine.decisions()
        assert set(decisions) >= {0, 1, 2}
        assert set(decisions.values()) == {2}

    def test_max_rounds_must_be_positive(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [1, 2, 3])
        with pytest.raises(ValueError):
            machine.run_until_decision(max_rounds=0)

