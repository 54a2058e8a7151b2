"""Tests for the oracle combinator algebra."""

from __future__ import annotations

import pytest

from repro.adversaries import (
    FaultFreeOracle,
    IntersectOracle,
    PartitionOracle,
    SequenceOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
    ensure_oracle,
)
from repro.rounds.bitmask import mask_of


class TestIntersect:
    def test_faults_compose(self):
        n = 4
        crash = StaticCrashOracle(n, {3: 2})
        partition = PartitionOracle(n, blocks=[[0, 1], [2, 3]])
        oracle = IntersectOracle(n, crash, partition)
        # round 1: only the partition acts
        assert oracle(1, 0) == frozenset({0, 1})
        assert oracle(1, 2) == frozenset({2, 3})
        # round 2: the crash removes process 3 from block {2, 3}
        assert oracle(2, 2) == frozenset({2})

    def test_identity_under_fault_free(self):
        n = 3
        partition = PartitionOracle(n, blocks=[[0, 1]])
        oracle = IntersectOracle(n, FaultFreeOracle(n), partition)
        for p in range(n):
            assert oracle(1, p) == partition(1, p)

    def test_requires_components(self):
        with pytest.raises(ValueError):
            IntersectOracle(3)


class TestSequence:
    def test_phases_switch_at_segment_boundaries(self):
        n = 3
        oracle = SequenceOracle(
            n,
            [
                (FaultFreeOracle(n), 2),
                (SilentRoundsOracle(n, range(1, 1000)), 3),
                (FaultFreeOracle(n), None),
            ],
        )
        full = frozenset(range(n))
        assert oracle(1, 0) == full
        assert oracle(2, 0) == full
        for r in (3, 4, 5):
            assert oracle(r, 0) == frozenset()
        assert oracle(6, 0) == full
        assert oracle(100, 0) == full

    def test_components_see_local_rounds(self):
        n = 3
        # A crash segment scripted mid-sequence models a transient crash:
        # the component crashes its victim from *local* round 1.
        oracle = SequenceOracle(
            n,
            [
                (FaultFreeOracle(n), 4),
                (StaticCrashOracle(n, {2: 1}), 2),
                (FaultFreeOracle(n), None),
            ],
        )
        assert 2 in oracle(4, 0)
        assert 2 not in oracle(5, 0)
        assert 2 not in oracle(6, 0)
        assert 2 in oracle(7, 0)

    def test_only_final_segment_may_be_open_ended(self):
        n = 2
        with pytest.raises(ValueError, match="open-ended"):
            SequenceOracle(n, [(FaultFreeOracle(n), None), (FaultFreeOracle(n), 3)])

    def test_rejects_non_positive_lengths(self):
        n = 2
        with pytest.raises(ValueError):
            SequenceOracle(n, [(FaultFreeOracle(n), 0)])


class TestAdapters:
    def test_plain_callables_are_adapted_and_clamped(self):
        oracle = IntersectOracle(3, lambda r, p: [0, 1, 2, 99])
        assert oracle(1, 0) == frozenset({0, 1, 2})
        assert oracle.ho_mask(1, 0) == mask_of({0, 1, 2})

    def test_ensure_oracle_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="sized"):
            ensure_oracle(FaultFreeOracle(3), 4)

    def test_nesting(self):
        n = 4
        inner = SequenceOracle(
            n, [(PartitionOracle(n, blocks=[[0, 1], [2, 3]]), 2), (FaultFreeOracle(n), None)]
        )
        outer = IntersectOracle(n, inner, StaticCrashOracle(n, {3: 100}))
        assert outer(1, 0) == frozenset({0, 1})
        assert outer(3, 0) == frozenset({0, 1, 2, 3})
        assert outer(100, 0) == frozenset({0, 1, 2})


class TestStatefulComponentIsolation:
    """Regression: IntersectOracle must query every component every round.

    The old short-circuit (``if not mask: break``) skipped queries to later
    components; a skipped *stateful*
    component consumes its seeded sub-stream differently depending on
    sibling outcomes, violating the documented rule that concerns cannot
    perturb each other.
    """

    def _drive(self, oracle, n, rounds):
        return [oracle.ho_mask(r, p) for r in range(1, rounds + 1) for p in range(n)]

    def test_intersect_queries_stateful_siblings_behind_an_empty_mask(self):
        from repro.adversaries import EventuallyStableCoordinatorOracle

        n, rounds = 4, 12

        def blackout(round, process):
            # empties the accumulated mask on odd rounds BEFORE the stateful
            # component is reached; with the old short-circuit the stateful
            # oracle was only queried on even rounds.
            return [] if round % 2 else range(n)

        stateful = EventuallyStableCoordinatorOracle(n, stable_from=100, seed=5)
        composed = IntersectOracle(n, blackout, stateful)
        self._drive(composed, n, rounds)

        standalone = EventuallyStableCoordinatorOracle(n, stable_from=100, seed=5)
        assert self._drive(stateful, n, rounds)[: n * rounds] == self._drive(
            standalone, n, rounds
        ), "stateful component's draw sequence was perturbed by its sibling"

    def test_two_stateful_components_compose_reproducibly(self):
        """Composing two lazily-drawing oracles replays per seed, cell by cell."""
        from repro.adversaries import BurstyLossOracle, EventuallyStableCoordinatorOracle

        n, rounds = 4, 15

        def build():
            return IntersectOracle(
                n,
                BurstyLossOracle(n, p_burst=0.4, p_recover=0.2, seed=3),
                EventuallyStableCoordinatorOracle(n, stable_from=100, seed=8),
            )

        assert self._drive(build(), n, rounds) == self._drive(build(), n, rounds)
