"""Tests for the dynamic/transient adversary families."""

from __future__ import annotations

import random

import pytest

from repro.adversaries import (
    BurstyLossOracle,
    CounterKernelOracle,
    EventuallyStableCoordinatorOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
)
from repro.rounds.bitmask import bit_count


class TestMobileOmission:
    def test_at_most_k_senders_silenced_per_round(self):
        n, k = 8, 2
        oracle = MobileOmissionOracle(n, faults=k, seed=1)
        for r in range(1, 30):
            heard_by_all = frozenset(range(n))
            for p in range(n):
                heard_by_all &= oracle(r, p)
            assert len(heard_by_all) >= n - k

    def test_faults_move_over_time(self):
        n = 8
        oracle = MobileOmissionOracle(n, faults=2, seed=3)
        silenced_sets = {oracle._silenced_mask(r) for r in range(1, 40)}
        assert len(silenced_sets) > 1

    def test_receiver_always_hears_itself(self):
        oracle = MobileOmissionOracle(4, faults=4, seed=0)
        for r in range(1, 10):
            for p in range(4):
                assert p in oracle(r, p)

    def test_stabilises(self):
        n = 4
        oracle = MobileOmissionOracle(n, faults=2, seed=0, stable_from=10)
        assert oracle(10, 0) == frozenset(range(n))
        assert oracle(50, 3) == frozenset(range(n))

    def test_same_seed_same_run(self):
        a = MobileOmissionOracle(6, faults=2, seed=9)
        b = MobileOmissionOracle(6, faults=2, seed=9)
        assert [a(r, p) for r in range(1, 10) for p in range(6)] == [
            b(r, p) for r in range(1, 10) for p in range(6)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            MobileOmissionOracle(4, faults=5)


class TestRotatingPartition:
    def test_blocks_partition_the_system(self):
        n = 9
        oracle = RotatingPartitionOracle(n, blocks=3, period=4, churn=0.5, seed=2)
        for r in (1, 5, 13):
            seen = []
            for p in range(n):
                block = oracle(r, p)
                assert p in block
                seen.append(block)
            # blocks are equivalence classes: same block -> identical HO set
            for p in range(n):
                for q in seen[p]:
                    assert seen[q] == seen[p]

    def test_partition_is_stable_within_a_period(self):
        oracle = RotatingPartitionOracle(6, blocks=2, period=5, churn=1.0, seed=4)
        for p in range(6):
            first = oracle(1, p)
            for r in range(2, 6):
                assert oracle(r, p) == first

    def test_partition_rotates_across_periods(self):
        oracle = RotatingPartitionOracle(8, blocks=2, period=3, churn=1.0, seed=5)
        layouts = set()
        for epoch in range(6):
            r = epoch * 3 + 1
            layouts.add(tuple(sorted(oracle(r, p)) != sorted(range(8)) for p in range(1)))
            layouts.add(tuple(tuple(sorted(oracle(r, p))) for p in range(8)))
        assert len(layouts) > 2

    def test_heals(self):
        oracle = RotatingPartitionOracle(5, blocks=2, period=2, seed=0, heal_from=7)
        assert oracle(7, 0) == frozenset(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            RotatingPartitionOracle(4, blocks=0)
        with pytest.raises(ValueError):
            RotatingPartitionOracle(4, period=0)
        with pytest.raises(ValueError):
            RotatingPartitionOracle(4, churn=1.5)


class TestBurstyLoss:
    def test_losses_cluster_in_bursts(self):
        n = 2
        oracle = BurstyLossOracle(
            n, p_burst=0.15, p_recover=0.2, loss_burst=1.0, loss_good=0.0, seed=11
        )
        # Track link 1 -> 0 over many rounds: losses should appear in runs
        # whose mean length exceeds 1 (independent loss would give ~1 / (1-p)).
        lost = [1 not in oracle(r, 0) for r in range(1, 400)]
        runs = []
        current = 0
        for flag in lost:
            if flag:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs, "expected at least one burst"
        assert sum(runs) / len(runs) > 1.5

    def test_query_order_does_not_matter(self):
        a = BurstyLossOracle(4, seed=7)
        b = BurstyLossOracle(4, seed=7)
        # Warm a forwards and b backwards, then compare every cell: link
        # states advance round by round internally, so any query order
        # replays the same environment.
        [a(r, p) for r in range(1, 15) for p in range(4)]
        [b(r, p) for r in range(14, 0, -1) for p in range(4)]
        for r in range(1, 15):
            for p in range(4):
                assert a(r, p) == b(r, p)

    def test_stabilises(self):
        oracle = BurstyLossOracle(3, p_burst=1.0, p_recover=0.0, seed=0, stable_from=5)
        assert oracle(5, 0) == frozenset(range(3))

    def test_self_always_heard(self):
        oracle = BurstyLossOracle(3, p_burst=1.0, p_recover=0.0, loss_burst=1.0, seed=1)
        for r in range(1, 10):
            for p in range(3):
                assert p in oracle(r, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyLossOracle(3, p_burst=1.5)


class TestEventuallyStableCoordinator:
    def test_stable_phase_is_fault_free_with_fixed_coordinator(self):
        oracle = EventuallyStableCoordinatorOracle(5, stable_from=8, stable_coordinator=2)
        assert oracle(8, 0) == frozenset(range(5))
        assert oracle.coordinator(8) == 2
        assert oracle.coordinator(100) == 2

    def test_pretenders_change_before_stabilisation(self):
        oracle = EventuallyStableCoordinatorOracle(6, stable_from=50, seed=3)
        pretenders = {oracle.coordinator(r) for r in range(1, 40)}
        assert len(pretenders) > 1

    def test_unstable_rounds_are_partial(self):
        oracle = EventuallyStableCoordinatorOracle(
            6, stable_from=100, background_probability=0.3, seed=1
        )
        sizes = [bit_count(oracle.ho_mask(r, p)) for r in range(1, 20) for p in range(6)]
        assert min(sizes) >= 1  # always hears itself
        assert any(size < 6 for size in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventuallyStableCoordinatorOracle(4, stable_from=0)
        with pytest.raises(ValueError):
            EventuallyStableCoordinatorOracle(4, stable_from=5, stable_coordinator=9)


#: The five counter-stream oracles, each built so that every round draws
#: (a one-round partition period makes every round a new epoch).
COUNTER_ORACLES = {
    "mobile": lambda n: MobileOmissionOracle(n, faults=1, seed=9),
    "partition": lambda n: RotatingPartitionOracle(
        n, blocks=2, period=1, churn=0.5, seed=9
    ),
    "bursty": lambda n: BurstyLossOracle(n, p_burst=0.3, p_recover=0.3, seed=9),
    "coordinator": lambda n: EventuallyStableCoordinatorOracle(
        n, stable_from=10_000, seed=9
    ),
    "kernel": lambda n: CounterKernelOracle(n, pi0=range(n - 1), seed=9),
}


@pytest.mark.parametrize("make", COUNTER_ORACLES.values(), ids=COUNTER_ORACLES.keys())
class TestOneRoundOfState:
    """A counter-stream oracle keeps only the current round's (or epoch's)
    answer, yet answers any (round, process) in any order with the same bits."""

    def test_state_stays_within_n_entries_on_long_runs(self, make):
        n = 4
        oracle = make(n)
        for r in range(1, 4097):
            for p in range(n):
                oracle.ho_mask(r, p)
        sizes = {
            name: len(value)
            for name, value in vars(oracle).items()
            if hasattr(value, "__len__") and not isinstance(value, str)
        }
        assert all(size <= n for size in sizes.values()), sizes

    def test_any_query_order_gets_the_same_answers(self, make):
        n = 5
        queries = [(r, p) for r in range(1, 41) for p in range(n)]
        reference = make(n)
        expected = {query: reference.ho_mask(*query) for query in queries}
        shuffled = list(queries)
        random.Random(4).shuffle(shuffled)
        for order in (queries, queries[::-1], shuffled):
            oracle = make(n)
            assert {query: oracle.ho_mask(*query) for query in order} == expected

    def test_a_window_300_revisit_repeats_the_first_visit(self, make):
        n, window = 4, 300
        oracle = make(n)
        rounds = range(1, window + 1)
        first_visit = [oracle.ho_mask(r, p) for r in rounds for p in range(n)]
        # run on past the window, then revisit it from round 1: the oracle
        # replays its recurrence and repeats every answer
        oracle.ho_mask(3 * window, 0)
        second_visit = [oracle.ho_mask(r, p) for r in rounds for p in range(n)]
        fresh = make(n)
        assert second_visit == first_visit
        assert first_visit == [fresh.ho_mask(r, p) for r in rounds for p in range(n)]
