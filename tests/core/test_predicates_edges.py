"""Edge-case coverage for predicate combinators and window finders.

n=1 systems, empty collections, zero-length windows, double negation, and
the boundary behaviour of ``find_psu_window`` / ``find_pk_window``.
"""

from __future__ import annotations

import pytest

from repro.predicates import (
    And,
    MajorityEveryRound,
    NonEmptyKernelEveryRound,
    Not,
    Or,
    POtr,
    PRestrOtr,
    PSpaceUniform,
    PerRoundCardinality,
    TruePredicate,
    UniformRoundExists,
    exists_p2otr,
    find_pk_window,
    find_psu_window,
    pk_holds,
    psu_holds,
)
from repro.core.types import HOCollection


def collection_of(n, rows):
    """rows: {(process, round): iterable} -> HOCollection."""
    collection = HOCollection(n)
    for (p, r), ho in rows.items():
        collection.record(p, r, ho)
    return collection


class TestEmptyCollections:
    """A fresh collection has max_round == 0: no recorded rounds at all."""

    def test_universal_predicates_hold_vacuously(self):
        empty = HOCollection(3)
        assert PerRoundCardinality(2).holds(empty)
        assert MajorityEveryRound(3).holds(empty)
        assert NonEmptyKernelEveryRound().holds(empty)

    def test_existential_predicates_fail(self):
        empty = HOCollection(3)
        assert not UniformRoundExists().holds(empty)
        assert not POtr().holds(empty)
        assert not PRestrOtr().holds(empty)
        assert not exists_p2otr(3).holds(empty)

    def test_window_finders_return_none(self):
        empty = HOCollection(3)
        assert find_psu_window(empty, [0, 1], length=1) is None
        assert find_pk_window(empty, [0, 1], length=1) is None


class TestSingleProcessSystems:
    def test_n1_fault_free_satisfies_everything(self):
        collection = collection_of(1, {(0, 1): {0}, (0, 2): {0}})
        assert psu_holds(collection, {0}, 1, 2)
        assert pk_holds(collection, {0}, 1, 2)
        assert UniformRoundExists().holds(collection)
        assert POtr().holds(collection)
        assert PRestrOtr().holds(collection)

    def test_n1_silent_round(self):
        collection = collection_of(1, {(0, 1): set()})
        assert not psu_holds(collection, {0}, 1, 1)
        assert not pk_holds(collection, {0}, 1, 1)
        # A single silent round is space uniform (all processes agree on {}).
        assert UniformRoundExists().holds(collection)
        assert not POtr().holds(collection)

    def test_empty_pi0_is_trivially_uniform(self):
        collection = collection_of(2, {(0, 1): {0}, (1, 1): {1}})
        # No process in pi0 -> the universal quantifier over pi0 is vacuous.
        assert psu_holds(collection, [], 1, 1)
        assert pk_holds(collection, [], 1, 1)


class TestZeroLengthWindows:
    def test_inverted_windows_never_hold(self):
        collection = collection_of(2, {(0, 1): {0, 1}, (1, 1): {0, 1}})
        assert not psu_holds(collection, {0, 1}, 2, 1)
        assert not pk_holds(collection, {0, 1}, 2, 1)
        assert not psu_holds(collection, {0, 1}, 0, 0)
        assert not PSpaceUniform({0, 1}, 3, 2).holds(collection)

    def test_window_finder_rejects_oversized_lengths(self):
        rows = {(p, r): {0, 1} for p in range(2) for r in (1, 2)}
        collection = collection_of(2, rows)
        assert find_psu_window(collection, {0, 1}, length=2) == 1
        assert find_psu_window(collection, {0, 1}, length=3) is None
        assert find_pk_window(collection, {0, 1}, length=3) is None

    def test_window_finder_start_round_beyond_recording(self):
        rows = {(p, r): {0, 1} for p in range(2) for r in (1, 2)}
        collection = collection_of(2, rows)
        assert find_psu_window(collection, {0, 1}, length=1, start_round=2) == 2
        assert find_psu_window(collection, {0, 1}, length=1, start_round=3) is None


class TestCombinators:
    def test_double_negation_roundtrip(self):
        uniform = collection_of(2, {(0, 1): {0, 1}, (1, 1): {0, 1}})
        split = collection_of(2, {(0, 1): {0}, (1, 1): {1}})
        for predicate in (UniformRoundExists(), POtr(), PRestrOtr(), TruePredicate()):
            for collection in (uniform, split):
                assert (~(~predicate)).holds(collection) == predicate.holds(collection)

    def test_negation_name_and_semantics(self):
        predicate = Not(TruePredicate())
        assert predicate.name == "not(true)"
        assert not predicate.holds(HOCollection(2))

    def test_and_or_with_single_operand(self):
        collection = collection_of(2, {(0, 1): {0, 1}, (1, 1): {0, 1}})
        assert And(UniformRoundExists()).holds(collection)
        assert Or(UniformRoundExists()).holds(collection)

    def test_and_or_reject_empty(self):
        with pytest.raises(ValueError):
            And()
        with pytest.raises(ValueError):
            Or()

    def test_de_morgan_on_recorded_collections(self):
        a, b = UniformRoundExists(), NonEmptyKernelEveryRound()
        uniform = collection_of(2, {(0, 1): {0, 1}, (1, 1): {0, 1}})
        split = collection_of(2, {(0, 1): {0}, (1, 1): {1}})
        for collection in (uniform, split):
            assert (~(a & b)).holds(collection) == ((~a) | (~b)).holds(collection)
            assert (~(a | b)).holds(collection) == ((~a) & (~b)).holds(collection)

    def test_pi0_validation_still_applies(self):
        collection = HOCollection(2)
        with pytest.raises(ValueError):
            psu_holds(collection, {5}, 1, 1)
        with pytest.raises(ValueError):
            pk_holds(collection, {5}, 2, 1)
