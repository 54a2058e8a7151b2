"""Unit tests for the communication predicates (Table 1 and Section 4.2)."""

from __future__ import annotations

import pytest

from repro.predicates import (
    And,
    MajorityEveryRound,
    NonEmptyKernelEveryRound,
    Not,
    Or,
    P11Otr,
    P2Otr,
    PKernel,
    POtr,
    PRestrOtr,
    PSpaceUniform,
    PerRoundCardinality,
    TruePredicate,
    UniformRoundExists,
    exists_p11otr,
    exists_p2otr,
    find_pk_window,
    find_psu_window,
    otr_threshold,
    pk_holds,
    psu_holds,
)

from tests.conftest import make_collection, uniform_round


class TestOtrThreshold:
    @pytest.mark.parametrize(
        "n, expected",
        [(3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (9, 7), (10, 7)],
    )
    def test_strictly_more_than_two_thirds(self, n, expected):
        assert otr_threshold(n) == expected
        # The threshold really is the smallest integer > 2n/3.
        assert 3 * expected > 2 * n
        assert 3 * (expected - 1) <= 2 * n


class TestPsuPkHelpers:
    def test_psu_requires_exact_equality(self):
        collection = make_collection(3, [uniform_round(3, [0, 1, 2])])
        assert psu_holds(collection, [0, 1, 2], 1, 1)
        assert psu_holds(collection, [0, 1, 2], 1, 1)
        # A strict subset as pi0 fails: HO sets equal Pi, not pi0.
        assert not psu_holds(collection, [0, 1], 1, 1)

    def test_pk_requires_only_containment(self):
        collection = make_collection(3, [uniform_round(3, [0, 1, 2])])
        assert pk_holds(collection, [0, 1], 1, 1)
        assert pk_holds(collection, [0, 1, 2], 1, 1)

    def test_pk_fails_when_member_missing(self):
        collection = make_collection(
            3, [{0: [0, 1], 1: [0, 1, 2], 2: [0, 1, 2]}]
        )
        assert not pk_holds(collection, [0, 1, 2], 1, 1)
        assert pk_holds(collection, [0, 1], 1, 1)

    def test_invalid_round_ranges_do_not_hold(self):
        collection = make_collection(3, [uniform_round(3, [0, 1, 2])])
        assert not psu_holds(collection, [0, 1, 2], 0, 1)
        assert not psu_holds(collection, [0, 1, 2], 2, 1)
        assert not pk_holds(collection, [0, 1, 2], 0, 0)

    def test_find_windows(self):
        bad = {p: [p] for p in range(3)}
        good = uniform_round(3, [0, 1, 2])
        collection = make_collection(3, [bad, good, good, bad])
        assert find_psu_window(collection, [0, 1, 2], 2) == 2
        assert find_psu_window(collection, [0, 1, 2], 3) is None
        assert find_pk_window(collection, [0, 1, 2], 2) == 2
        assert find_psu_window(collection, [0, 1, 2], 1, start_round=3) == 3


class TestSimplePredicates:
    def test_true_predicate(self):
        collection = make_collection(2, [uniform_round(2, [0])])
        assert TruePredicate().holds(collection)

    def test_majority_every_round(self):
        n = 5
        majority = uniform_round(n, [0, 1, 2])
        collection = make_collection(n, [majority, majority])
        assert MajorityEveryRound(n).holds(collection)
        collection_bad = make_collection(n, [majority, uniform_round(n, [0, 1])])
        assert not MajorityEveryRound(n).holds(collection_bad)

    def test_per_round_cardinality_with_scope(self):
        collection = make_collection(3, [{0: [0, 1, 2], 1: [1], 2: [2]}])
        assert PerRoundCardinality(3, scope=[0]).holds(collection)
        assert not PerRoundCardinality(3).holds(collection)

    def test_non_empty_kernel(self):
        with_kernel = make_collection(3, [{0: [0, 1], 1: [1, 2], 2: [1]}])
        assert NonEmptyKernelEveryRound().holds(with_kernel)
        without_kernel = make_collection(3, [{0: [0], 1: [1], 2: [2]}])
        assert not NonEmptyKernelEveryRound().holds(without_kernel)

    def test_uniform_round_exists(self):
        scattered = {0: [0], 1: [1], 2: [2]}
        collection = make_collection(3, [scattered, uniform_round(3, [0, 2]), scattered])
        assert UniformRoundExists().holds(collection)
        assert not UniformRoundExists().holds(make_collection(3, [scattered]))


class TestCombinators:
    def test_and_or_not(self):
        collection = make_collection(3, [uniform_round(3, [0, 1, 2])])
        true = TruePredicate()
        false = Not(TruePredicate())
        assert And(true, true).holds(collection)
        assert not And(true, false).holds(collection)
        assert Or(false, true).holds(collection)
        assert not Or(false, false).holds(collection)
        assert Not(false).holds(collection)

    def test_operator_sugar(self):
        collection = make_collection(3, [uniform_round(3, [0, 1, 2])])
        true = TruePredicate()
        assert (true & true).holds(collection)
        assert (~(true | true)).holds(collection) is False

    def test_empty_combinators_rejected(self):
        with pytest.raises(ValueError):
            And()
        with pytest.raises(ValueError):
            Or()


class TestPOtr:
    def test_holds_on_fault_free_run(self):
        n = 4
        collection = make_collection(n, [uniform_round(n, range(n))] * 3)
        assert POtr().holds(collection)

    def test_requires_large_uniform_round(self):
        n = 6
        # Uniform but too small (4 <= 2n/3 = 4).
        small = uniform_round(n, [0, 1, 2, 3])
        later = uniform_round(n, range(n))
        assert not POtr().holds(make_collection(n, [small]))
        # A large uniform round followed by big-enough rounds for everyone.
        big = uniform_round(n, [0, 1, 2, 3, 4])
        assert POtr().holds(make_collection(n, [big, later]))

    def test_requires_followup_rounds_for_all_processes(self):
        n = 3
        big = uniform_round(n, range(n))
        # Round 2 leaves process 2 with too small an HO set and there is no
        # later round, so the second conjunct fails.
        partial = {0: [0, 1, 2], 1: [0, 1, 2], 2: [2]}
        assert not POtr().holds(make_collection(n, [big, partial]))
        assert POtr().holds(make_collection(n, [big, partial, big]))

    def test_allows_empty_rounds_elsewhere(self):
        n = 3
        empty = {p: [] for p in range(n)}
        big = uniform_round(n, range(n))
        collection = make_collection(n, [empty, big, empty, big])
        assert POtr().holds(collection)


class TestPRestrOtr:
    def test_holds_with_restricted_scope(self):
        n = 4
        pi0 = [0, 1, 2]
        # Process 3 (outside pi0) hears random things; pi0 processes hear pi0.
        round1 = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        round2 = {0: [0, 1, 2, 3], 1: pi0, 2: pi0, 3: [3]}
        collection = make_collection(n, [round1, round2])
        predicate = PRestrOtr()
        assert predicate.holds(collection)
        r0, witness = predicate.witness(collection)
        assert r0 == 1
        assert witness == frozenset(pi0)

    def test_fails_when_pi0_too_small(self):
        n = 6
        pi0 = [0, 1, 2, 3]  # 4 <= 2n/3
        round1 = {p: pi0 for p in pi0}
        collection = make_collection(n, [round1, round1])
        assert not PRestrOtr().holds(collection)

    def test_fails_without_followup_superset_round(self):
        n = 4
        pi0 = [0, 1, 2]
        round1 = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        starved = {0: [0], 1: [1], 2: [2], 3: [3]}
        collection = make_collection(n, [round1, starved])
        assert not PRestrOtr().holds(collection)

    def test_weaker_than_potr(self):
        """P_otr implies P_restr_otr (with Pi0 = the uniform HO set)."""
        n = 4
        collection = make_collection(n, [uniform_round(n, range(n))] * 2)
        assert POtr().holds(collection)
        assert PRestrOtr().holds(collection)


class TestParametricPredicates:
    def test_space_uniform_and_kernel_classes(self):
        n = 4
        pi0 = [0, 1, 2]
        psu_round = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        pk_round = {0: [0, 1, 2, 3], 1: pi0, 2: [0, 1, 2, 3], 3: []}
        collection = make_collection(n, [psu_round, pk_round])
        assert PSpaceUniform(pi0, 1, 1).holds(collection)
        assert not PSpaceUniform(pi0, 1, 2).holds(collection)
        assert PKernel(pi0, 1, 2).holds(collection)
        assert not PKernel(pi0, 1, 3).holds(collection)

    def test_p2otr_needs_consecutive_rounds(self):
        n = 4
        pi0 = [0, 1, 2]
        psu_round = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        pk_round = {0: [0, 1, 2, 3], 1: pi0, 2: [0, 1, 2, 3], 3: []}
        bad_round = {p: [p] for p in range(n)}
        consecutive = make_collection(n, [psu_round, pk_round])
        assert P2Otr(pi0).holds(consecutive)
        assert P2Otr(pi0).witness(consecutive) == 1
        gap = make_collection(n, [psu_round, bad_round, pk_round])
        assert not P2Otr(pi0).holds(gap)
        # ... but P_1/1otr tolerates the gap.
        assert P11Otr(pi0).holds(gap)
        assert P11Otr(pi0).witness(gap) == (1, 3)

    def test_p11otr_requires_order(self):
        n = 4
        pi0 = [0, 1, 2]
        psu_round = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        pk_only = {0: [0, 1, 2, 3], 1: pi0, 2: [0, 1, 2, 3], 3: []}
        # Kernel round *before* the space-uniform round does not count.
        collection = make_collection(n, [pk_only, psu_round])
        # (psu round is also a kernel round, but there is nothing after it)
        assert not P11Otr(pi0).holds(collection)

    def test_p2otr_and_p11otr_imply_prestrotr(self):
        """The implications stated right after the predicate definitions."""
        n = 4
        pi0 = [0, 1, 2]
        psu_round = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        pk_round = {0: [0, 1, 2, 3], 1: pi0, 2: [0, 1, 2, 3], 3: []}
        collection = make_collection(n, [psu_round, pk_round])
        assert exists_p2otr(n).holds(collection)
        assert exists_p11otr(n).holds(collection)
        assert PRestrOtr().holds(collection)

    def test_exists_pi0_witness(self):
        n = 4
        pi0 = [0, 1, 2]
        psu_round = {0: pi0, 1: pi0, 2: pi0, 3: [3]}
        pk_round = {0: [0, 1, 2, 3], 1: pi0, 2: [0, 1, 2, 3], 3: []}
        collection = make_collection(n, [psu_round, pk_round])
        assert exists_p2otr(n).witness(collection) == frozenset(pi0)
        assert exists_p2otr(n).witness(make_collection(n, [psu_round])) is None
