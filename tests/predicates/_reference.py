"""The reference the array monitors are checked against: the paper's definitions, folded.

A monitor's :class:`~repro.predicates.reports.PredicateReport` has two
halves, and both come from :mod:`repro.predicates.static` here:

* the verdict and the first hold round -- the whole-collection checker on
  every round prefix;
* the good-round statistics -- run lengths of a one-round instance of the
  definitions: ``P_otr``'s uniform quorum round, a ``P_restr_otr``
  candidate Pi0 (:meth:`PRestrOtr._candidate_pi0`), ``psu_holds`` over
  ``[r, r]`` for ``P_su`` and ``pk_holds`` over ``[r, r]`` for the
  kernel-round predicates ``P_k``, ``P_2otr`` and ``P_1/1otr``.

No monitor code runs, so the array monitors have an independent witness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.types import HOCollection
from repro.predicates import P2Otr, P11Otr, POtr, PRestrOtr, otr_threshold, pk_holds, psu_holds
from repro.predicates.reports import PredicateReport


def collection_of(n: int, rounds: Sequence[Sequence[int]]) -> HOCollection:
    """The heard-of collection whose round r is the mask vector ``rounds[r - 1]``."""
    collection = HOCollection(n)
    for round, masks in enumerate(rounds, start=1):
        for p, mask in enumerate(masks):
            collection.record_mask(p, round, mask)
    return collection


def restr_otr_candidate(collection: HOCollection, round: int) -> Optional[frozenset]:
    """Round *round*'s candidate Pi0: > 2n/3 processes that all heard exactly it."""
    threshold = otr_threshold(collection.n)
    for candidate in PRestrOtr._candidate_pi0(collection, round):
        if len(candidate) >= threshold and all(
            collection.ho(p, round) == candidate for p in candidate
        ):
            return candidate
    return None


def round_good(name: str, collection: HOCollection, round: int, pi0: frozenset) -> bool:
    """The per-round good condition of predicate *name*."""
    if name == "p_otr":
        return collection.is_space_uniform(round) and (
            len(collection.ho(0, round)) >= otr_threshold(collection.n)
        )
    if name == "p_restr_otr":
        return restr_otr_candidate(collection, round) is not None
    if name == "p_su":
        return psu_holds(collection, pi0, round, round)
    return pk_holds(collection, pi0, round, round)


def checker_holds(name: str, collection: HOCollection, pi0: frozenset) -> bool:
    """The whole-collection verdict of predicate *name* (P_su / P_k: over all rounds)."""
    if name == "p_su":
        return psu_holds(collection, pi0, 1, collection.max_round)
    if name == "p_k":
        return pk_holds(collection, pi0, 1, collection.max_round)
    checker = {"p_otr": POtr(), "p_restr_otr": PRestrOtr(), "p_2otr": P2Otr(pi0),
               "p_1/1otr": P11Otr(pi0)}[name]
    return checker.holds(collection)


def good_flags(name: str, n: int, rounds: Sequence[Sequence[int]], pi0=None) -> List[bool]:
    """The good condition of *name* in every round of *rounds*."""
    pi0 = frozenset(range(n) if pi0 is None else pi0)
    collection = collection_of(n, rounds)
    return [round_good(name, collection, r, pi0) for r in range(1, len(rounds) + 1)]


def reference_reports(
    name: str, n: int, rounds: Sequence[Sequence[int]], pi0=None
) -> List[PredicateReport]:
    """What a monitor of *name* must report after each round of *rounds* (Pi0: everyone)."""
    pi0 = frozenset(range(n) if pi0 is None else pi0)
    prefix = HOCollection(n)
    reports: List[PredicateReport] = []
    good_rounds, first_good, first_hold = 0, None, None
    run = {True: 0, False: 0}
    longest = {True: 0, False: 0}
    for r, masks in enumerate(rounds, start=1):
        for p, mask in enumerate(masks):
            prefix.record_mask(p, r, mask)
        good = round_good(name, prefix, r, pi0)
        holds = checker_holds(name, prefix, pi0)
        run[good], run[not good] = run[good] + 1, 0
        longest[good] = max(longest[good], run[good])
        good_rounds += good
        first_good = first_good or (r if good else None)
        first_hold = first_hold or (r if holds else None)
        reports.append(PredicateReport(
            name=name, rounds_observed=r, good_rounds=good_rounds,
            first_good_round=first_good, longest_good_run=longest[True],
            longest_bad_run=longest[False], first_hold_round=first_hold, holds=holds,
        ))
    return reports


def reference_report(
    name: str, n: int, rounds: Sequence[Sequence[int]], pi0=None
) -> PredicateReport:
    """What a monitor of *name* must report after observing all of *rounds*."""
    return reference_reports(name, n, rounds, pi0)[-1]


def reference_stop_round(
    names: Sequence[str], n: int, rounds: Sequence[Sequence[int]], held: int, pi0=None
) -> Optional[int]:
    """The first round after which some predicate's good condition held *held* rounds."""
    runs = [0] * len(names)
    flags = [good_flags(name, n, rounds, pi0) for name in names]
    for r in range(len(rounds)):
        runs = [run + 1 if flag[r] else 0 for run, flag in zip(runs, flags)]
        if max(runs) >= held:
            return r + 1
    return None
