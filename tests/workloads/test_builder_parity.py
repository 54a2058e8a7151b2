"""A scenario is its CellPlan builder: one construction, every execution path.

For every batchable scenario the registry knows, the single-seed scalar
runner (the builder at ``seeds=(seed,)`` on the full-trace reference loop),
the builder's plan on the scenario's scalar backend and the same plan on
its ``auto`` backend must produce identical per-replica wire outcomes --
and every backend choice a sweep accepts must resolve, for every such
scenario, to a registered execution backend.
"""

from __future__ import annotations

import pytest

from repro.rounds.backend import backend_names, get_backend
from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    BACKEND_CHOICES,
    RunSpec,
    _replica_outcome_from_record,
    execute_run,
)

SEEDS = (0, 1, 2)


def on_backend(scenario, choice, fault_model, n):
    plan = REGISTRY.batch_builder(scenario)(fault_model, n=n, seeds=SEEDS)
    backend = get_backend(REGISTRY.resolve_backend(scenario, choice))
    return plan.finalize(backend.run(plan.batch))


@pytest.mark.parametrize("choice", BACKEND_CHOICES)
@pytest.mark.parametrize("scenario", REGISTRY.batchable_scenario_names())
def test_every_sweep_backend_choice_resolves_to_a_registered_backend(scenario, choice):
    assert REGISTRY.resolve_backend(scenario, choice) in backend_names()


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("fault_model", REGISTRY.fault_model_names())
@pytest.mark.parametrize("scenario", REGISTRY.batchable_scenario_names())
def test_runner_and_builder_agree_on_every_backend(scenario, fault_model, n):
    runner = [
        _replica_outcome_from_record(
            execute_run(RunSpec.make(scenario, fault_model, seed, n=n))
        )
        for seed in SEEDS
    ]
    assert all(outcome["error"] is None for outcome in runner)
    scalar = on_backend(scenario, "scalar", fault_model, n)
    assert runner == scalar
    assert scalar == on_backend(scenario, "auto", fault_model, n)
