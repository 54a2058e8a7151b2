"""A scenario is its CellPlan builder: one construction, every execution path.

For every batchable scenario the registry knows, the single-seed runner
(the builder at ``seeds=(seed,)`` on the scenario's scalar backend), the
builder's plan on that backend and the same plan on its ``auto`` backend
must produce identical per-replica wire outcomes -- and every backend
choice a sweep accepts must resolve, for every such scenario, to a
registered execution backend.

For the round-level scenarios a second, independent executor pins the
scalar backend itself: each seed's task on the trace-keeping
:class:`~repro.core.machine.HOMachine`, projected from its full trace by
``check_consensus`` and ``metrics_from_trace``.
"""

from __future__ import annotations

import pytest

from repro.analysis.consensus_check import check_consensus
from repro.analysis.metrics import metrics_from_trace
from repro.core.machine import HOMachine
from repro.rounds.backend import backend_names, get_backend
from repro.rounds.bitmask import iter_bits
from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    BACKEND_CHOICES,
    RunSpec,
    _replica_outcome_from_record,
    execute_run,
)

SEEDS = (0, 1, 2)
BATCHABLE = REGISTRY.batchable_scenario_names()
ROUND_LEVEL = [name for name in BATCHABLE if REGISTRY.resolve_backend(name, "scalar") == "scalar"]
MONITORED = {"predicates": ("p_su", "p_k", "p_2otr", "p_otr"), "run_full_horizon": True}


def plan_for(scenario, fault_model, n, **params):
    return REGISTRY.batch_builder(scenario)(fault_model, n=n, seeds=SEEDS, **params)


def on_backend(scenario, choice, fault_model, n, **params):
    plan = plan_for(scenario, fault_model, n, **params)
    backend = get_backend(REGISTRY.resolve_backend(scenario, choice))
    return plan.finalize(backend.run(plan.batch))


def on_homachine(scenario, fault_model, n, **params):
    """Each seed's task on HOMachine, as the sweep's per-replica wire dicts."""
    batch = plan_for(scenario, fault_model, n, **params).batch
    scope = frozenset(iter_bits(batch.effective_scope_mask))
    outcomes = []
    for task in batch.tasks:
        bank = None if batch.monitor_spec is None else batch.monitor_spec.scalar_bank(batch.n)
        machine = HOMachine(
            batch.algorithm, task.oracle, task.initial_values,
            observers=() if bank is None else (bank,),
        )
        if batch.run_full_horizon:
            while machine.current_round < batch.max_rounds and not machine.engine.stop_requested:
                machine.run_round()
            trace = machine.trace
        else:
            trace = machine.run_until_decision(max_rounds=batch.max_rounds, scope=scope)
        verdict = check_consensus(trace, task.initial_values, scope=scope)
        metrics = metrics_from_trace(trace, scope=scope)
        outcomes.append({
            "seed": task.seed,
            "solved": verdict.solved,
            "safe": verdict.safe,
            "terminated": verdict.termination,
            "decided_processes": metrics.decided_processes,
            "scope_size": metrics.scope_size,
            "first_decision_time": metrics.first_decision_time,
            "last_decision_time": metrics.last_decision_time,
            "messages_sent": metrics.messages_sent,
            "error": None,
            "predicates": None if bank is None else bank.reports_json(),
        })
    return outcomes


@pytest.mark.parametrize("choice", BACKEND_CHOICES)
@pytest.mark.parametrize("scenario", BATCHABLE)
def test_every_sweep_backend_choice_resolves_to_a_registered_backend(scenario, choice):
    assert REGISTRY.resolve_backend(scenario, choice) in backend_names()


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("fault_model", REGISTRY.fault_model_names())
@pytest.mark.parametrize("scenario", BATCHABLE)
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
    if scenario in ROUND_LEVEL:
        assert scalar == on_homachine(scenario, fault_model, n)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("fault_model", REGISTRY.fault_model_names())
@pytest.mark.parametrize("scenario", ROUND_LEVEL)
def test_trace_keeping_executor_agrees_with_the_scalar_backend_under_monitors(
    scenario, fault_model, n
):
    assert on_homachine(scenario, fault_model, n, **MONITORED) == on_backend(
        scenario, "scalar", fault_model, n, **MONITORED
    )
