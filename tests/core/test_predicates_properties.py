"""Property-based tests of the communication predicates and their relationships.

These check, on randomly generated heard-of collections, the implications
the paper states between predicates (e.g. ``P_2otr => P_restr_otr``,
``P_otr => P_restr_otr``, ``P_su => P_k``) and structural invariants of the
helper functions.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import (
    P11Otr,
    P2Otr,
    PKernel,
    POtr,
    PRestrOtr,
    PSpaceUniform,
    exists_p11otr,
    exists_p2otr,
    find_pk_window,
    find_psu_window,
    otr_threshold,
    pk_holds,
    psu_holds,
)
from repro.core.types import HOCollection


N = 5


def collections(n: int = N, max_rounds: int = 6):
    """Strategy: arbitrary heard-of collections for *n* processes."""
    subset = st.frozensets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    schedule = st.lists(
        st.lists(subset, min_size=n, max_size=n), min_size=1, max_size=max_rounds
    )

    def build(rows: List[List[frozenset]]) -> HOCollection:
        collection = HOCollection(n)
        for round_index, row in enumerate(rows):
            for process, ho in enumerate(row):
                collection.record(process, round_index + 1, ho)
        return collection

    return schedule.map(build)


def good_suffix_collections(n: int = N, max_prefix: int = 4):
    """Strategy: arbitrary prefix followed by two fault-free rounds."""
    base = collections(n, max_prefix)

    def extend(collection: HOCollection) -> HOCollection:
        full = frozenset(range(n))
        start = collection.max_round + 1
        for round in (start, start + 1):
            for process in range(n):
                collection.record(process, round, full)
        return collection

    return base.map(extend)


@settings(max_examples=200, deadline=None)
@given(collection=good_suffix_collections())
def test_potr_implies_prestrotr_on_stabilising_runs(collection):
    """On runs ending in fault-free rounds, ``P_otr`` comes with ``P_restr_otr``.

    The unrestricted implication is *not* a theorem of the finite-trace
    formulations implemented here: ``P_otr``'s second clause only bounds the
    *cardinality* of the later heard-of sets (enough for Theorem 1, since a
    Pi-wide space-uniform round makes every value common), whereas
    ``P_restr_otr``'s second clause needs the later sets to *contain* Pi0
    (Theorem 2 gets no help from processes outside Pi0).  See the pinned
    counterexample below.  On runs with a fault-free suffix -- the shape
    good periods produce -- both hold together.
    """
    if POtr().holds(collection):
        assert PRestrOtr().holds(collection)


def test_potr_without_prestrotr_counterexample():
    """Pinned counterexample: large later heard-of sets need not contain Pi0.

    Round 2 is space-uniform for all of Pi (so ``P_otr``'s first clause has
    Pi0 = Pi), and every process later hears 4 > 2n/3 processes -- but never
    a superset of Pi0, so no witness for ``P_restr_otr`` exists.
    """
    collection = HOCollection(N)
    full = frozenset(range(N))
    most = frozenset(range(N - 1))  # {0..3}: large, but never contains process 4
    for process in range(N):
        collection.record(process, 1, frozenset())
        collection.record(process, 2, full)
        collection.record(process, 3, most if process % 2 else frozenset())
        collection.record(process, 4, frozenset() if process % 2 else most)
    assert POtr().holds(collection)
    assert not PRestrOtr().holds(collection)


@settings(max_examples=200, deadline=None)
@given(collection=collections())
def test_exists_p2otr_implies_prestrotr(collection):
    if exists_p2otr(N).holds(collection):
        assert PRestrOtr().holds(collection)


@settings(max_examples=200, deadline=None)
@given(collection=collections())
def test_exists_p11otr_implies_prestrotr(collection):
    if exists_p11otr(N).holds(collection):
        assert PRestrOtr().holds(collection)


@settings(max_examples=200, deadline=None)
@given(collection=collections())
def test_p2otr_implies_p11otr(collection):
    """Two consecutive good rounds are a special case of two ordered good rounds."""
    pi0 = frozenset(range(otr_threshold(N)))
    if P2Otr(pi0).holds(collection):
        assert P11Otr(pi0).holds(collection)


@settings(max_examples=200, deadline=None)
@given(collection=collections(), data=st.data())
def test_psu_implies_pk(collection, data):
    pi0 = data.draw(
        st.frozensets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=N)
    )
    first = data.draw(st.integers(min_value=1, max_value=max(collection.max_round, 1)))
    last = data.draw(st.integers(min_value=first, max_value=max(collection.max_round, 1)))
    if psu_holds(collection, pi0, first, last):
        assert pk_holds(collection, pi0, first, last)


@settings(max_examples=200, deadline=None)
@given(collection=collections(), data=st.data())
def test_window_finders_return_satisfying_windows(collection, data):
    pi0 = data.draw(
        st.frozensets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=N)
    )
    length = data.draw(st.integers(min_value=1, max_value=3))
    psu_start = find_psu_window(collection, pi0, length)
    if psu_start is not None:
        assert psu_holds(collection, pi0, psu_start, psu_start + length - 1)
        # Minimality: no earlier window satisfies it.
        for earlier in range(1, psu_start):
            assert not psu_holds(collection, pi0, earlier, earlier + length - 1)
    pk_start = find_pk_window(collection, pi0, length)
    if pk_start is not None:
        assert pk_holds(collection, pi0, pk_start, pk_start + length - 1)


@settings(max_examples=100, deadline=None)
@given(collection=good_suffix_collections())
def test_fault_free_suffix_satisfies_the_table1_predicates(collection):
    """Two fault-free rounds at the end always yield P_otr and P_restr_otr."""
    assert POtr().holds(collection)
    assert PRestrOtr().holds(collection)
    assert exists_p2otr(N).holds(collection)


@settings(max_examples=200, deadline=None)
@given(collection=collections(), data=st.data())
def test_class_and_function_forms_agree(collection, data):
    pi0 = data.draw(
        st.frozensets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=N)
    )
    first = data.draw(st.integers(min_value=1, max_value=max(collection.max_round, 1)))
    last = data.draw(st.integers(min_value=first, max_value=max(collection.max_round, 1)))
    assert PSpaceUniform(pi0, first, last).holds(collection) == psu_holds(
        collection, pi0, first, last
    )
    assert PKernel(pi0, first, last).holds(collection) == pk_holds(
        collection, pi0, first, last
    )


@settings(max_examples=150, deadline=None)
@given(collection=collections())
def test_restrict_preserves_pk_for_the_scope(collection):
    """Restricting a collection onto pi0 preserves kernel containment within pi0."""
    pi0 = frozenset(range(3))
    restricted = collection.restrict(pi0)
    for round in collection.rounds():
        if pk_holds(collection, pi0, round, round):
            assert pk_holds(restricted, pi0, round, round)
