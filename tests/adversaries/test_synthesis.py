"""Tests for the predicate-driven oracle synthesizer."""

from __future__ import annotations

import pytest

from repro.adversaries import (
    CollectionOracle,
    SynthesisError,
    synthesize_collection,
    synthesize_oracle,
)
from repro.algorithms import OneThirdRule
from repro.core.machine import HOMachine
from repro.predicates import (
    MajorityEveryRound,
    NonEmptyKernelEveryRound,
    POtr,
    PRestrOtr,
    TruePredicate,
    UniformRoundExists,
    exists_p2otr,
)
from repro.core.types import HOCollection


SATISFIABLE = [
    POtr(),
    PRestrOtr(),
    UniformRoundExists(),
    NonEmptyKernelEveryRound(),
    MajorityEveryRound(5),
    exists_p2otr(5),
]


class TestSynthesizeCollection:
    @pytest.mark.parametrize("predicate", SATISFIABLE, ids=lambda p: p.name)
    def test_satisfying_collections(self, predicate):
        collection = synthesize_collection(predicate, n=5, rounds=12, satisfy=True)
        assert predicate.holds(collection)

    @pytest.mark.parametrize("predicate", SATISFIABLE, ids=lambda p: p.name)
    def test_violating_collections(self, predicate):
        collection = synthesize_collection(predicate, n=5, rounds=12, satisfy=False)
        assert not predicate.holds(collection)

    def test_unsatisfiable_request_raises(self):
        with pytest.raises(SynthesisError):
            synthesize_collection(TruePredicate(), n=4, rounds=5, satisfy=False, max_attempts=25)

    def test_deterministic_per_seed(self):
        a = synthesize_collection(POtr(), n=5, rounds=10, seed=3)
        b = synthesize_collection(POtr(), n=5, rounds=10, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_collection(POtr(), n=0)
        with pytest.raises(ValueError):
            synthesize_collection(POtr(), n=3, rounds=0)


class TestCollectionOracle:
    def test_replays_the_recording_then_falls_back(self):
        collection = HOCollection(3)
        collection.record(0, 1, {0, 2})
        collection.record(1, 1, {1})
        oracle = CollectionOracle(collection)
        assert oracle(1, 0) == frozenset({0, 2})
        assert oracle(1, 1) == frozenset({1})
        # unrecorded cell inside the window and any round beyond it: default
        assert oracle(1, 2) == frozenset({0, 1, 2})
        assert oracle(2, 0) == frozenset({0, 1, 2})

    def test_default_mask_zero_keeps_violations_alive(self):
        collection = HOCollection(2)
        collection.record(0, 1, set())
        oracle = CollectionOracle(collection, default_mask=0)
        assert oracle(5, 0) == frozenset()


class TestEndToEnd:
    def test_machine_under_a_satisfying_oracle_terminates(self):
        n = 5
        predicate = POtr()
        oracle = synthesize_oracle(predicate, n=n, rounds=15, satisfy=True)
        machine = HOMachine(OneThirdRule(n), oracle, [30, 10, 20, 50, 40])
        trace = machine.run_until_decision(max_rounds=40)
        assert predicate.holds(trace.ho_collection) or trace.rounds_executed() > 15
        assert machine.all_decided()

    def test_machine_under_a_violating_oracle_stays_safe(self):
        n = 5
        oracle = synthesize_oracle(PRestrOtr(), n=n, rounds=15, satisfy=False)
        machine = HOMachine(OneThirdRule(n), oracle, [30, 10, 20, 50, 40])
        # Cap the run at the synthesised prefix so the violation persists.
        trace = machine.run(15)
        assert not PRestrOtr().holds(trace.ho_collection)
        decisions = set(trace.decisions().values())
        assert len(decisions) <= 1  # agreement can never break
