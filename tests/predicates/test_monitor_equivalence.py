"""Property tests: the monitor bank equals the paper's whole-collection definitions.

The acceptance bar of the predicate subsystem: for each predicate of
Table 1 and Section 4.2 (``P_otr``, ``P_restr_otr``, ``P_su``, ``P_k``,
``P_2otr``, ``P_1/1otr``), replaying a heard-of collection through a
:class:`~repro.predicates.MonitorBank` round by round must reach exactly
the verdict the whole-collection checker computes on the full collection,
and report exactly the statistics folded from the definitions
(:mod:`tests.predicates._reference`) -- on arbitrary hypothesis-generated
collections, and on collections recorded from the seeded adversary zoo
driving real engine runs.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import (
    BurstyLossOracle,
    GoodPeriodOracle,
    MobileOmissionOracle,
    RandomOmissionOracle,
    RotatingPartitionOracle,
)
from repro.algorithms import OneThirdRule
from repro.core.machine import HOMachine
from repro.core.types import HOCollection
from repro.predicates import MONITOR_NAMES, MonitorBank, POtr, PRestrOtr
from repro.rounds.bitmask import mask_of

from ._reference import checker_holds, reference_report

N = 5


def collections(n: int = N, max_rounds: int = 6):
    """Strategy: arbitrary heard-of collections for *n* processes.

    Biased towards space-uniform rounds so the existential predicates
    actually find witnesses in a useful fraction of examples.
    """
    subset = st.frozensets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    uniform_row = subset.map(lambda ho: [ho] * n)
    arbitrary_row = st.lists(subset, min_size=n, max_size=n)
    schedule = st.lists(
        st.one_of(arbitrary_row, uniform_row), min_size=1, max_size=max_rounds
    )

    def build(rows: List[List[frozenset]]) -> HOCollection:
        collection = HOCollection(n)
        for round_index, row in enumerate(rows):
            for process, ho in enumerate(row):
                collection.record(process, round_index + 1, ho)
        return collection

    return schedule.map(build)


def checker_verdicts(collection: HOCollection, pi0: frozenset) -> dict:
    """The whole-collection verdicts for all six predicates."""
    return {name: checker_holds(name, collection, pi0) for name in MONITOR_NAMES}


def mask_rounds(collection: HOCollection) -> list:
    return [
        [collection.ho_mask(p, round) for p in range(collection.n)]
        for round in collection.rounds()
    ]


def monitor_reports(collection: HOCollection, pi0: frozenset) -> dict:
    bank = MonitorBank(collection.n, MONITOR_NAMES, pi0_mask=mask_of(pi0))
    for round, masks in enumerate(mask_rounds(collection), start=1):
        bank.observe_round(round, masks)
    return bank.reports()


@settings(max_examples=300, deadline=None)
@given(collection=collections(), data=st.data())
def test_all_six_monitors_match_their_checkers(collection, data):
    pi0 = data.draw(
        st.frozensets(st.integers(min_value=0, max_value=N - 1), max_size=N)
    )
    reports = monitor_reports(collection, pi0)
    verdicts = {name: report.holds for name, report in reports.items()}
    assert verdicts == checker_verdicts(collection, pi0)
    rounds = mask_rounds(collection)
    assert reports == {name: reference_report(name, N, rounds, pi0) for name in MONITOR_NAMES}


@settings(max_examples=150, deadline=None)
@given(collection=collections(max_rounds=8))
def test_prefix_verdicts_track_the_checker_on_every_prefix(collection):
    """The bank's first_hold_round is the first prefix the checker accepts."""
    checkers = {"p_otr": POtr(), "p_restr_otr": PRestrOtr()}
    bank = MonitorBank(N, tuple(checkers))
    first_holds = dict.fromkeys(checkers)
    prefix = HOCollection(N)
    for round in collection.rounds():
        masks = [collection.ho_mask(p, round) for p in range(N)]
        for p in range(N):
            prefix.record_mask(p, round, masks[p])
        bank.observe_round(round, masks)
        reports = bank.reports()
        for name, checker in checkers.items():
            assert reports[name].holds == checker.holds(prefix), (
                f"{name} diverged on the prefix ending at round {round}"
            )
            if first_holds[name] is None and reports[name].holds:
                first_holds[name] = round
    reports = bank.reports()
    for name in checkers:
        assert reports[name].first_hold_round == first_holds[name]


def seeded_oracles(n: int, seed: int):
    """A representative slice of the adversary zoo, all healing eventually."""
    return [
        RandomOmissionOracle(n, 0.35, seed=seed),
        RotatingPartitionOracle(n, blocks=2, period=3, churn=0.4, seed=seed, heal_from=15),
        MobileOmissionOracle(n, faults=2, seed=seed, stable_from=12),
        BurstyLossOracle(n, p_burst=0.3, p_recover=0.3, seed=seed, stable_from=14),
        GoodPeriodOracle(n, pi0=range(n - 1), good_from=8, good_to=18, seed=seed),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_monitors_match_checkers_on_engine_runs_under_seeded_adversaries(seed):
    """Equivalence on real runs: the bank observes the engine's record stream
    while the trace records the collection; both must agree for all six
    predicates and every adversary family tried."""
    n = 5
    pi0 = frozenset(range(n - 1))
    for oracle in seeded_oracles(n, seed):
        bank = MonitorBank(n, MONITOR_NAMES, pi0_mask=mask_of(pi0))
        machine = HOMachine(
            OneThirdRule(n), oracle, [10 * (p + 1) for p in range(n)], observers=[bank]
        )
        machine.run(25)
        collection = machine.trace.ho_collection
        reports = bank.reports()
        streamed = {name: report.holds for name, report in reports.items()}
        assert streamed == checker_verdicts(collection, pi0), (
            f"divergence under {type(oracle).__name__} with seed {seed}"
        )
        rounds = mask_rounds(collection)
        assert reports == {
            name: reference_report(name, n, rounds, pi0) for name in MONITOR_NAMES
        }, f"statistics diverge under {type(oracle).__name__} with seed {seed}"
