"""Unit tests for the heard-of oracles (the round-level environment)."""

from __future__ import annotations

import pytest

from repro.adversaries import (
    FaultFreeOracle,
    GoodPeriodOracle,
    KernelOnlyOracle,
    PartitionOracle,
    RandomOmissionOracle,
    ScriptedOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
)
from repro.core.types import all_processes


class TestFaultFreeOracle:
    def test_everyone_hears_everyone(self):
        oracle = FaultFreeOracle(5)
        for round in (1, 2, 10):
            for p in range(5):
                assert oracle(round, p) == all_processes(5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            FaultFreeOracle(0)


class TestStaticCrashOracle:
    def test_crashed_process_disappears_from_round_on(self):
        oracle = StaticCrashOracle(4, {2: 3})
        assert 2 in oracle(2, 0)
        assert 2 not in oracle(3, 0)
        assert 2 not in oracle(10, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticCrashOracle(3, {5: 1})
        with pytest.raises(ValueError):
            StaticCrashOracle(3, {0: 0})


class TestRandomOmissionOracle:
    def test_extreme_probabilities(self):
        never = RandomOmissionOracle(4, loss_probability=0.0, seed=1)
        always = RandomOmissionOracle(4, loss_probability=1.0, seed=1)
        assert never(1, 0) == all_processes(4)
        assert always(1, 0) == frozenset({0})  # always hears itself

    def test_no_self_hearing_when_disabled(self):
        always = RandomOmissionOracle(4, loss_probability=1.0, seed=1, always_hear_self=False)
        assert always(1, 0) == frozenset()

    def test_memoisation_makes_queries_consistent(self):
        oracle = RandomOmissionOracle(6, loss_probability=0.5, seed=42)
        assert oracle(3, 2) == oracle(3, 2)

    def test_same_seed_same_run(self):
        a = RandomOmissionOracle(6, loss_probability=0.5, seed=7)
        b = RandomOmissionOracle(6, loss_probability=0.5, seed=7)
        sets_a = [a(r, p) for r in range(1, 5) for p in range(6)]
        sets_b = [b(r, p) for r in range(1, 5) for p in range(6)]
        assert sets_a == sets_b

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomOmissionOracle(3, loss_probability=1.5)


class TestPartitionOracle:
    def test_processes_hear_only_their_block(self):
        oracle = PartitionOracle(5, blocks=[[0, 1, 2], [3, 4]])
        assert oracle(1, 0) == frozenset({0, 1, 2})
        assert oracle(1, 4) == frozenset({3, 4})

    def test_unlisted_processes_are_singletons(self):
        oracle = PartitionOracle(4, blocks=[[0, 1]])
        assert oracle(1, 3) == frozenset({3})

    def test_heal_round_restores_full_communication(self):
        oracle = PartitionOracle(4, blocks=[[0, 1], [2, 3]], heal_round=3)
        assert oracle(2, 0) == frozenset({0, 1})
        assert oracle(3, 0) == all_processes(4)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            PartitionOracle(4, blocks=[[0, 1], [1, 2]])


class TestSilentAndScriptedOracles:
    def test_silent_rounds_deliver_nothing(self):
        oracle = SilentRoundsOracle(3, silent_rounds=[2, 4])
        assert oracle(1, 0) == all_processes(3)
        assert oracle(2, 0) == frozenset()
        assert oracle(4, 2) == frozenset()

    def test_scripted_oracle_uses_script_then_default(self):
        oracle = ScriptedOracle(3, {(1, 0): [0, 1]}, default=[0])
        assert oracle(1, 0) == frozenset({0, 1})
        assert oracle(1, 1) == frozenset({0})
        assert oracle(9, 2) == frozenset({0})


class TestGoodPeriodOracle:
    def test_good_rounds_are_space_uniform_for_pi0(self):
        pi0 = frozenset({0, 1, 2})
        oracle = GoodPeriodOracle(4, pi0=pi0, good_from=5, good_to=8, seed=3)
        for round in range(5, 9):
            for p in pi0:
                assert oracle(round, p) == pi0
        # Outside the good window nothing is guaranteed; outside pi0 either.
        assert oracle(5, 3) != pi0 or True

    def test_bad_rounds_are_memoised(self):
        oracle = GoodPeriodOracle(4, pi0=[0, 1, 2], good_from=10, seed=3)
        assert oracle(1, 0) == oracle(1, 0)

    def test_good_from_validation(self):
        with pytest.raises(ValueError):
            GoodPeriodOracle(4, pi0=[0, 1], good_from=0)


class TestKernelOnlyOracle:
    def test_pi0_always_contained_for_pi0_processes(self):
        pi0 = frozenset({0, 1, 2})
        oracle = KernelOnlyOracle(5, pi0=pi0, seed=11)
        for round in range(1, 10):
            for p in pi0:
                assert pi0.issubset(oracle(round, p))

    def test_not_necessarily_space_uniform(self):
        pi0 = frozenset({0, 1, 2})
        oracle = KernelOnlyOracle(5, pi0=pi0, seed=11)
        ho_sets = {
            (round, p): oracle(round, p) for round in range(1, 30) for p in pi0
        }
        # Over 30 rounds with random extras, at least one round is not uniform.
        non_uniform = any(
            len({ho_sets[(round, p)] for p in pi0}) > 1 for round in range(1, 30)
        )
        assert non_uniform
