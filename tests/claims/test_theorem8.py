"""Theorem 8 and Section 4.2.2(c): the ``f+1``-round translation and its ``2f+3`` cost.

Algorithm 4 turns ``f+1`` kernel rounds (``P_k``) into one space-uniform
macro-round (``P_su``), so ``P_2otr`` -- hence consensus with OneThirdRule
-- needs ``2(f+1) + 1 = 2f+3`` kernel rounds of a good period
(:func:`repro.predimpl.bounds.arbitrary_p2otr_rounds`), i.e. a
pi0-arbitrary good period of Theorem 6's length at ``x = 2f+3``
(:func:`repro.predimpl.bounds.arbitrary_p2otr_length`).

Claims checked: in the translation cell all of pi0 decides, in agreement, on
the ``f+1`` cadence; once a dynamic adversary stabilises, ``P_2otr`` first
holds within ``2f+3`` rounds on every non-lossy fault model; the full
step-level stack (Algorithm 1 over 4 over 3) decides within the good-period
bound.  The array tiers are pinned to the scalar references on the way.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro._optional import have_numpy
from repro.predimpl.bounds import arbitrary_p2otr_rounds
from repro.rounds.backend import get_backend
from repro.rounds.bitmask import bit_count
from repro.workloads import (
    ROUND_FAMILIES,
    build_round_adversary_batch,
    build_step_batch,
    build_translation_batch,
    measure_arbitrary_p2otr,
)

N = 16
F = 1
REPLICAS = 16
#: replicas of the seed prefix re-run on the (slow) scalar references
SCALAR_REPLICAS = 4


def translation_cell(replicas):
    """The Theorem 8 cell: six macro-rounds of Algorithm 4 over a fault-free kernel."""
    plan = build_translation_batch(
        "fault-free", n=N, seeds=range(1, replicas + 1), f=F, rounds=6 * (F + 1),
        run_full_horizon=True,
    )
    return replace(plan.batch, fingerprints=True)


def step_cell(replicas):
    """OneThirdRule over Algorithm 2 at step level, fault free, eight rounds."""
    plan = build_step_batch(
        "fault-free", n=N, seeds=range(1, replicas + 1), rounds=8, run_full_horizon=True
    )
    return replace(plan.batch, fingerprints=True)


def test_theorem8_translation_cell():
    """All of pi0 decides (f keeps 3(n - f) > 2n), in agreement, at the f+1 cadence."""
    pi0 = set(range(N - F))
    for outcome in get_backend("batch").run(translation_cell(REPLICAS)):
        assert pi0 <= set(outcome.decisions), outcome.seed
        assert len({outcome.decisions[p] for p in pi0}) == 1, outcome.seed
        assert all(outcome.decision_rounds[p] % (F + 1) == 0 for p in pi0), outcome.seed


@pytest.mark.parametrize(
    "cell, reference, tier",
    [(translation_cell, "scalar", "batch"), (step_cell, "step-scalar", "step-batch")],
    ids=["translation", "step"],
)
def test_array_tier_equals_the_scalar_reference_on_the_seed_prefix(cell, reference, tier):
    """Decisions, rounds, message counts and per-round fingerprints, bit for bit."""
    outcomes = get_backend(tier).run(cell(REPLICAS))
    assert outcomes[:SCALAR_REPLICAS] == get_backend(reference).run(cell(SCALAR_REPLICAS))


@pytest.mark.parametrize("fault_model", ["fault-free", "crash-stop", "crash-recovery", "lossy"])
@pytest.mark.parametrize("family", ROUND_FAMILIES)
@pytest.mark.parametrize("backend_name", ["batch", "scalar"])
def test_p2otr_first_holds_within_the_translation_round_bound(backend_name, family, fault_model):
    """Once the family stabilises, P_2otr is due within 2f+3 rounds (f = |Pi - scope|).

    The lossy overlay keeps dropping messages after stabilisation, so there
    the reports are required and the bound is not.
    """
    stabilize_round = 40
    plan = build_round_adversary_batch(
        fault_model, n=4, seeds=range(8), family=family, rounds=80,
        stabilize_round=stabilize_round, predicates=("p_2otr",), run_full_horizon=True,
    )
    backend = get_backend(backend_name)
    outcomes = backend.run(plan.batch)
    if backend_name == "batch" and have_numpy():
        assert backend.last_fallback_reason is None
    f = 4 - bit_count(plan.batch.effective_scope_mask)
    round_bound = stabilize_round + arbitrary_p2otr_rounds(f)
    first_holds = [o.predicate_reports["p_2otr"]["first_hold_round"] for o in outcomes]
    print(f"{family:<30} {fault_model:<15} f={f} bound={round_bound} first holds={first_holds}")
    if fault_model != "lossy":
        assert all(first is not None and first <= round_bound for first in first_holds)


def test_full_stack_consensus_within_p2otr_bound():
    """Algorithm 1 over 4 over 3: one good period of the 2f+3-round length suffices."""
    measurement = measure_arbitrary_p2otr(4, 1, seed=0)
    print(measurement.row())
    assert measurement.within_bound, measurement.row()
    assert len(set(measurement.extra["decisions"].values())) == 1
