"""The theorem scenario family: scenario semantics and sweep wiring.

The ``ho-step-*`` and ``ho-theorem8-translation`` scenarios promise that the
sweep's generic ``--backend`` choices resolve through the registered
step-path aliases and that a cell's record names the backend that ran it.
Scalar/batched wire parity of every batchable scenario is pinned by
``test_builder_parity.py``.
"""

from __future__ import annotations

import pickle

import pytest

from repro._optional import have_numpy
from repro.rounds.backend import get_backend
from repro.runner.registry import REGISTRY
from repro.runner.sweep import RunSpec, run_one, run_sweep
from repro.workloads.theorems import (
    STEP_BACKEND_ALIASES,
    build_step_batch,
    build_translation_batch,
)

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


class TestRegistration:
    def test_scenarios_are_registered(self):
        names = REGISTRY.scenario_names()
        for name in ("ho-step-down-otr", "ho-step-arbitrary-otr", "ho-theorem8-translation"):
            assert name in names
            assert REGISTRY.batch_builder(name) is not None
            assert REGISTRY.scenario_is_monitorable(name)

    def test_step_scenarios_alias_the_generic_backends(self):
        for requested, resolved in STEP_BACKEND_ALIASES.items():
            assert REGISTRY.resolve_backend("ho-step-down-otr", requested) == resolved
            assert REGISTRY.resolve_backend("ho-step-arbitrary-otr", requested) == resolved
        # The round-level translation cell keeps the generic backends.
        assert REGISTRY.resolve_backend("ho-theorem8-translation", "batch") == "batch"
        # Unregistered scenarios pass every name through.
        assert REGISTRY.resolve_backend("ho-classic-otr", "batch") == "batch"


class TestStepScenario:
    @pytest.mark.parametrize(
        "fault_model", ["fault-free", "crash-stop", "crash-recovery", "lossy"]
    )
    def test_down_good_cells_solve_under_every_fault_model(self, fault_model):
        assert all(
            run_one("ho-step-down-otr", fault_model, seed=seed).solved for seed in (0, 1)
        )

    def test_arbitrary_kind_solves_with_translation(self):
        assert run_one("ho-step-arbitrary-otr", "fault-free").solved
        plan = build_step_batch("fault-free", n=4, kind="arbitrary-good")
        env = plan.batch.tasks[0].oracle
        assert env.f == 1
        assert env.use_translation is True

    def test_slim_records_pickle(self):
        """Sweep records cross worker pools: no trace may ride along."""
        plan = build_step_batch("fault-free", n=4, seeds=(0, 1))
        records = plan.finalize(get_backend("step-scalar").run(plan.batch))
        assert len(records) == 2
        pickle.dumps(records)

    def test_monitored_step_run_reports_predicates(self):
        result = run_one(
            "ho-step-down-otr", "fault-free", predicates=("p_su",), run_full_horizon=False
        )
        assert result.extra["predicate_reports"]["p_su"]["rounds_observed"] > 0


class TestTranslationScenario:
    def test_decides_at_the_macro_round_cadence(self):
        result = run_one("ho-theorem8-translation", "fault-free", n=7)
        assert result.solved
        algorithm = build_translation_batch("fault-free", n=7).batch.tasks[0].algorithm
        per_macro = algorithm.rounds_per_macro
        assert per_macro == algorithm.f + 1 == 3
        assert result.metrics.last_decision_round % per_macro == 0

    def test_negative_f_is_rejected_by_the_algorithm(self):
        """f is validated before pi0 = {0..n-f-1} and its oracle are built."""
        spec = RunSpec.make("ho-theorem8-translation", "fault-free", 0, n=4, f=-1)
        (record,) = run_sweep([spec], workers=1).records
        assert record.error == "ValueError: f must be non-negative, got -1"

    def test_scope_is_the_kernel_intersected_with_survivors(self):
        result = run_one("ho-theorem8-translation", "crash-stop")
        # f = 1: pi0 = {0, 1, 2}; the crash victim n-1 = 3 is an outsider.
        assert result.metrics.scope_size == 3
        assert result.solved


class TestSweepIntegration:
    def sweep(self, scenario, backend, fault_model="fault-free", replicas=3):
        spec = RunSpec(
            scenario=scenario, fault_model=fault_model, seed=0, n=4,
            replicas=replicas, backend=backend,
        )
        (record,) = run_sweep([spec], workers=1).records
        return record

    @pytest.mark.parametrize(
        "scenario", ["ho-step-down-otr", "ho-step-arbitrary-otr", "ho-theorem8-translation"]
    )
    def test_backend_axis_produces_identical_records(self, scenario):
        batch = self.sweep(scenario, "batch")
        scalar = self.sweep(scenario, "scalar")
        auto = self.sweep(scenario, "auto")
        for field in ("solved", "safe", "terminated", "decided_processes",
                      "first_decision_time", "last_decision_time", "messages_sent"):
            assert getattr(batch, field) == getattr(scalar, field) == getattr(auto, field)
        assert batch.replicas["outcomes"] == scalar.replicas["outcomes"]
        assert batch.replicas["outcomes"] == auto.replicas["outcomes"]

    @needs_numpy
    def test_step_cells_report_the_step_backend(self):
        record = self.sweep("ho-step-down-otr", "batch")
        assert record.replicas["backend"] == "step-batch"
        fallback = self.sweep("ho-step-down-otr", "batch", fault_model="lossy")
        assert fallback.replicas["backend"].startswith("step-batch:scalar-fallback")

    @pytest.mark.parametrize(
        "scenario,label",
        [("ho-step-down-otr", "step-scalar"), ("ho-step-arbitrary-otr", "step-scalar"),
         ("ho-theorem8-translation", "scalar")],
    )
    def test_scalar_choice_runs_the_plan_on_the_scenario_reference(self, scenario, label):
        assert self.sweep(scenario, "scalar").replicas["backend"] == label

    def test_translation_cells_report_the_round_backend(self):
        record = self.sweep("ho-theorem8-translation", "batch")
        expected = "batch" if have_numpy() else "batch:scalar-fallback"
        assert record.replicas["backend"].startswith(expected)
