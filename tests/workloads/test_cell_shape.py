"""What a round-level cell shares: one algorithm and one deterministic overlay.

The unit of a sweep cell is one pair (algorithm, environment) under R seeds.
Every round-level builder therefore builds the algorithm and each
deterministic fault-model overlay (fault-free, crash-stop, crash-recovery)
once per cell, and every task holds that one object; only the seeded
``lossy`` overlay is built per seed.  The array tiers broadcast an overlay
exactly because every replica holds the same object -- these tests pin the
shape that broadcast rests on.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.adversaries import IntersectOracle, RandomOmissionOracle
from repro.adversaries.batch import (
    BroadcastBatchOracle,
    IntersectBatchOracle,
    RandomOmissionBatchOracle,
    vectorize_oracles,
)
from repro.predimpl.step_backend import BatchStepBackend, StepEnvironment
from repro.rounds.backend import ReplicaTask
from repro.runner.registry import REGISTRY

#: one round-level scenario per builder: classic, dynamic adversary, Theorem 8.
BUILDERS = ["ho-classic-otr", "ho-round-mobile-omission", "ho-theorem8-translation"]
DETERMINISTIC = ["fault-free", "crash-stop", "crash-recovery"]
SEEDS = range(4)


def build(scenario, fault_model):
    return REGISTRY.batch_builder(scenario)(fault_model, n=4, seeds=SEEDS).batch


def overlay_of(scenario, oracle):
    """The fault-model overlay inside a task's oracle (None: there is none)."""
    if scenario == "ho-classic-otr":
        return oracle
    return oracle.oracles[1] if isinstance(oracle, IntersectOracle) else None


def test_a_task_carries_no_algorithm():
    assert [field.name for field in fields(ReplicaTask)] == ["seed", "oracle", "initial_values"]


@pytest.mark.parametrize("fault_model", DETERMINISTIC)
@pytest.mark.parametrize("scenario", BUILDERS)
def test_every_task_holds_the_cells_one_overlay(scenario, fault_model):
    batch = build(scenario, fault_model)
    assert batch.algorithm.n == batch.n
    overlays = [overlay_of(scenario, task.oracle) for task in batch.tasks]
    if scenario != "ho-classic-otr" and fault_model == "fault-free":
        assert overlays == [None] * len(SEEDS)
    else:
        assert overlays[0] is not None
        assert all(overlay is overlays[0] for overlay in overlays)


@pytest.mark.parametrize("fault_model", DETERMINISTIC)
def test_a_classic_cell_broadcasts(fault_model):
    batch = build("ho-classic-otr", fault_model)
    oracle = vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
    assert type(oracle) is BroadcastBatchOracle
    assert oracle.oracle is batch.tasks[0].oracle


@pytest.mark.parametrize("fault_model", ["crash-stop", "crash-recovery"])
@pytest.mark.parametrize("scenario", BUILDERS[1:])
def test_a_family_cell_broadcasts_its_overlay(scenario, fault_model):
    batch = build(scenario, fault_model)
    oracle = vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
    assert type(oracle) is IntersectBatchOracle
    family, overlay = oracle.components
    assert type(family) is not BroadcastBatchOracle
    assert type(overlay) is BroadcastBatchOracle
    assert overlay.oracle is overlay_of(scenario, batch.tasks[0].oracle)


@pytest.mark.parametrize("scenario", BUILDERS)
def test_a_lossy_overlay_stays_per_seed(scenario):
    batch = build(scenario, "lossy")
    overlays = [overlay_of(scenario, task.oracle) for task in batch.tasks]
    assert all(type(overlay) is RandomOmissionOracle for overlay in overlays)
    assert len({id(overlay) for overlay in overlays}) == len(SEEDS)
    oracle = vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
    if scenario != "ho-classic-otr":
        oracle = oracle.components[1]
    assert type(oracle) is RandomOmissionBatchOracle


def test_a_lowered_step_cell_broadcasts(monkeypatch):
    """``step-batch`` swaps the environment for one fault-free oracle per cell."""
    import repro.adversaries.batch as adversaries_batch

    vectorized = []
    original = adversaries_batch.vectorize_oracles

    def spy(oracles, replicas, shared=None):
        vectorized.append(original(oracles, replicas, shared))
        return vectorized[-1]

    monkeypatch.setattr(adversaries_batch, "vectorize_oracles", spy)
    plan = REGISTRY.batch_builder("ho-step-down-otr")("fault-free", n=4, seeds=SEEDS)
    assert isinstance(plan.batch.tasks[0].oracle, StepEnvironment)
    backend = BatchStepBackend()
    backend.run(plan.batch)
    assert backend.last_fallback_reason is None
    assert [type(oracle) for oracle in vectorized] == [BroadcastBatchOracle]

