"""Unit tests for the LastVoting (Paxos-like) HO algorithm."""

from __future__ import annotations

import pytest

from repro.algorithms import LastVoting
from repro.adversaries import FaultFreeOracle, RandomOmissionOracle, ScriptedOracle
from repro.core.machine import HOMachine


class TestPhaseStructure:
    def test_rounds_map_to_phases_and_steps(self):
        algorithm = LastVoting(3)
        assert algorithm.phase_of(1) == 1
        assert algorithm.phase_of(4) == 1
        assert algorithm.phase_of(5) == 2
        assert [algorithm.step_of(r) for r in range(1, 9)] == [1, 2, 3, 4, 1, 2, 3, 4]

    def test_coordinator_rotates(self):
        algorithm = LastVoting(3)
        assert [algorithm.coordinator(phase) for phase in range(1, 7)] == [0, 1, 2, 0, 1, 2]


class TestSendFunction:
    def test_phase_one_sends_estimate(self):
        algorithm = LastVoting(3)
        state = algorithm.initial_state(1, 42)
        message = algorithm.send(1, 1, state)
        assert message.kind == "estimate"
        assert message.x == 42

    def test_only_committed_coordinator_sends_vote(self):
        algorithm = LastVoting(3)
        coordinator_state = algorithm.initial_state(0, 5)
        assert algorithm.send(2, 0, coordinator_state).kind == "noop"
        committed = coordinator_state.__class__(x=5, vote=5, commit=True)
        assert algorithm.send(2, 0, committed).kind == "vote"
        # A non-coordinator never sends a vote, committed or not.
        assert algorithm.send(2, 1, committed).kind == "noop"

    def test_ack_only_when_timestamp_matches_phase(self):
        algorithm = LastVoting(3)
        state = algorithm.initial_state(2, 5)
        assert algorithm.send(3, 2, state).kind == "noop"
        adopted = state.__class__(x=7, timestamp=1)
        assert algorithm.send(3, 2, adopted).kind == "ack"


class TestEndToEnd:
    def test_fault_free_run_decides_in_first_phase(self):
        n = 3
        machine = HOMachine(LastVoting(n), FaultFreeOracle(n), [30, 10, 20])
        trace = machine.run_until_decision(max_rounds=4)
        decisions = trace.decisions()
        assert len(decisions) == n
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {10, 20, 30}

    def test_survives_lossy_rounds_and_eventually_decides(self):
        n = 5
        oracle = RandomOmissionOracle(n, loss_probability=0.25, seed=3)
        machine = HOMachine(LastVoting(n), oracle, [5, 4, 3, 2, 1])
        trace = machine.run_until_decision(max_rounds=200)
        decisions = trace.decisions()
        assert decisions, "no process ever decided despite repeated phases"
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {1, 2, 3, 4, 5}

    def test_no_decision_when_coordinator_never_heard(self):
        n = 3
        # Nobody ever hears process 0 (the phase-1 coordinator) nor any other
        # coordinator: every HO set excludes the current coordinator.
        script = {}
        for round in range(1, 41):
            phase = (round - 1) // 4 + 1
            coordinator = (phase - 1) % n
            for p in range(n):
                script[(round, p)] = [q for q in range(n) if q != coordinator]
        oracle = ScriptedOracle(n, script)
        machine = HOMachine(LastVoting(n), oracle, [1, 2, 3])
        machine.run(40)
        assert machine.decisions() == {}

    def test_safety_under_random_loss(self):
        """Whatever the loss pattern, there is never disagreement."""
        n = 4
        for seed in range(5):
            oracle = RandomOmissionOracle(n, loss_probability=0.5, seed=seed)
            machine = HOMachine(LastVoting(n), oracle, [1, 2, 3, 4])
            machine.run(60)
            assert len(set(machine.decisions().values())) <= 1
