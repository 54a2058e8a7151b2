"""Tests for the round-level adversarial scenario family."""

from __future__ import annotations

import pytest

from repro.adversaries import BurstyLossOracle, IntersectOracle
from repro.rounds.backend import get_backend
from repro.runner.registry import REGISTRY
from repro.runner.sweep import run_one
from repro.workloads.adversarial import ROUND_FAMILIES, build_round_adversary_batch


def run_round(fault_model, family, seed=0, n=4, **params):
    return run_one(f"ho-round-{family}", fault_model, seed=seed, n=n, **params)


class TestRegistry:
    def test_every_family_is_registered(self):
        names = REGISTRY.scenario_names()
        for family in ROUND_FAMILIES:
            assert f"ho-round-{family}" in names

    def test_registered_runner_matches_direct_call(self):
        """The registered runner is the builder's one-seed plan on ``scalar``."""
        via_registry = REGISTRY.scenario("ho-round-bursty-loss")("fault-free", n=4, seed=1)
        plan = build_round_adversary_batch("fault-free", n=4, seeds=(1,), family="bursty-loss")
        (outcome,) = get_backend("scalar").run(plan.batch)
        assert via_registry.verdict.decisions == outcome.decisions
        assert via_registry.metrics.messages_sent == outcome.messages_sent
        assert via_registry.extra["rounds_executed"] == outcome.rounds_executed
        assert via_registry.stack == "ho-round-bursty-loss"


class TestMatrix:
    @pytest.mark.parametrize("family", ROUND_FAMILIES)
    @pytest.mark.parametrize(
        "fault_model", ["fault-free", "crash-stop", "crash-recovery", "lossy"]
    )
    def test_safety_never_breaks(self, family, fault_model):
        for seed in (0, 1):
            result = run_round(fault_model, family, seed=seed)
            assert result.safe, result.verdict.violations

    @pytest.mark.parametrize("family", ROUND_FAMILIES)
    def test_termination_after_stabilisation(self, family):
        """Stabilising families + crash overlays guarantee termination in scope."""
        for fault_model in ("fault-free", "crash-stop", "crash-recovery"):
            result = run_round(fault_model, family)
            assert result.solved, (fault_model, result.verdict.violations)

    def test_crash_stop_scope_excludes_the_crashed_process(self):
        result = run_round("crash-stop", "mobile-omission")
        assert result.metrics.scope_size == 3
        assert 3 not in result.verdict.decisions or result.verdict.termination

    def test_deterministic_per_seed(self):
        a = run_round("lossy", "rotating-partition", seed=5)
        b = run_round("lossy", "rotating-partition", seed=5)
        assert a.verdict.decisions == b.verdict.decisions
        assert a.metrics == b.metrics

    def test_unknown_family_and_fault_model_raise(self):
        with pytest.raises(ValueError):
            build_round_adversary_batch("fault-free", family="nope")
        with pytest.raises(ValueError):
            run_round("nope", "mobile-omission")

    def test_plan_intersects_the_family_with_the_overlay(self):
        plan = build_round_adversary_batch(
            "crash-stop", n=4, seeds=(0,), family="bursty-loss", rounds=80
        )
        oracle = plan.batch.tasks[0].oracle
        assert isinstance(oracle, IntersectOracle)
        family, _overlay = oracle.oracles
        assert isinstance(family, BurstyLossOracle)
        # stabilize_round defaults to the middle of the horizon
        assert family.stable_from == 40
