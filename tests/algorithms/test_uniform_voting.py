"""Unit tests for the UniformVoting HO algorithm."""

from __future__ import annotations

from repro.algorithms import UniformVoting
from repro.adversaries import FaultFreeOracle, RandomOmissionOracle, ScriptedOracle
from repro.core.machine import HOMachine


class TestRoundStructure:
    def test_voting_and_resolution_rounds(self):
        algorithm = UniformVoting(3)
        assert algorithm.is_voting_round(1)
        assert not algorithm.is_voting_round(2)
        assert algorithm.is_voting_round(3)
        assert algorithm.phase_of(1) == 1
        assert algorithm.phase_of(2) == 1
        assert algorithm.phase_of(3) == 2


class TestTransitions:
    def test_vote_set_only_when_all_received_values_agree(self):
        algorithm = UniformVoting(3)
        state = algorithm.initial_state(0, 5)
        from repro.algorithms.uniform_voting import UniformVotingMessage

        unanimous = {0: UniformVotingMessage(x=7), 1: UniformVotingMessage(x=7)}
        voted = algorithm.transition(1, 0, state, unanimous)
        assert voted.vote == 7

        split = {0: UniformVotingMessage(x=7), 1: UniformVotingMessage(x=8)}
        not_voted = algorithm.transition(1, 0, state, split)
        assert not_voted.vote is None

    def test_resolution_round_adopts_vote_and_decides_when_unanimous(self):
        algorithm = UniformVoting(3)
        from repro.algorithms.uniform_voting import UniformVotingMessage

        state = algorithm.initial_state(0, 5)
        all_voted = {
            0: UniformVotingMessage(x=7, vote=7),
            1: UniformVotingMessage(x=7, vote=7),
            2: UniformVotingMessage(x=7, vote=7),
        }
        decided = algorithm.transition(2, 0, state, all_voted)
        assert decided.x == 7
        assert decided.decision == 7

        mixed = {
            0: UniformVotingMessage(x=7, vote=7),
            1: UniformVotingMessage(x=3, vote=None),
        }
        adopted = algorithm.transition(2, 0, state, mixed)
        assert adopted.x == 7
        assert adopted.decision is None

    def test_resolution_round_without_votes_takes_smallest_estimate(self):
        algorithm = UniformVoting(3)
        from repro.algorithms.uniform_voting import UniformVotingMessage

        state = algorithm.initial_state(0, 5)
        no_votes = {
            0: UniformVotingMessage(x=7, vote=None),
            1: UniformVotingMessage(x=3, vote=None),
        }
        new_state = algorithm.transition(2, 0, state, no_votes)
        assert new_state.x == 3
        assert new_state.decision is None


class TestEndToEnd:
    def test_fault_free_run_decides(self):
        n = 4
        machine = HOMachine(UniformVoting(n), FaultFreeOracle(n), [4, 2, 3, 2])
        trace = machine.run_until_decision(max_rounds=10)
        decisions = trace.decisions()
        assert len(decisions) == n
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {2, 3, 4}

    def test_safety_with_nonempty_kernels(self):
        """With a fixed process heard by everyone each round, agreement must hold."""
        n = 4
        # Every HO set contains process 0 (a non-empty kernel), but they differ.
        script = {}
        for round in range(1, 31):
            script[(round, 0)] = [0, 1]
            script[(round, 1)] = [0, 1, 2]
            script[(round, 2)] = [0, 2, 3]
            script[(round, 3)] = [0, 3]
        oracle = ScriptedOracle(n, script)
        machine = HOMachine(UniformVoting(n), oracle, [5, 6, 7, 8])
        machine.run(30)
        assert len(set(machine.decisions().values())) <= 1

    def test_safety_under_random_loss_with_nonempty_kernel(self):
        """Random omissions on top of a guaranteed kernel member: never disagreement.

        UniformVoting's safety argument relies on non-empty kernels (two
        processes can then never lock conflicting votes), so the random
        omissions are applied on top of an always-heard process 0.
        """
        n = 5

        class KernelPreservingOmissionOracle(RandomOmissionOracle):
            def ho_set(self, round, process):
                return super().ho_set(round, process) | {0}

        for seed in range(5):
            oracle = KernelPreservingOmissionOracle(n, loss_probability=0.4, seed=seed)
            machine = HOMachine(UniformVoting(n), oracle, [1, 2, 3, 4, 5])
            machine.run(40)
            assert len(set(machine.decisions().values())) <= 1
