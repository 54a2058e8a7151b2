"""The ``ho-step-*`` / ``ho-theorem8-*`` scenarios: Theorems 3-8 as sweepable cells.

The measurement harness (:mod:`repro.workloads.measure`) checks the
theorems' closed-form bounds one run at a time; this module exposes the
same stacks as *scenarios* -- ``fn(fault_model, n=..., seed=...)`` cells
the sweep executor can replicate R-fold through the execution-backend
axis (``--replicas``/``--backend``):

* ``ho-step-down-otr`` -- OneThirdRule over Algorithm 2 (``P_su`` in
  pi0-down good periods; Theorems 3/5) on the step-level system model,
  executed through the step-path backends of
  :mod:`repro.predimpl.step_backend`;
* ``ho-step-arbitrary-otr`` -- OneThirdRule over Algorithm 4 over
  Algorithm 3 (``P_k`` made space-uniform; Theorems 6/7/8), same backend
  surface (these cells always degrade to the scalar step path -- the
  INIT/round wire protocol is not round-shaped);
* ``ho-theorem8-translation`` -- the *round-level* Theorem 8 cell:
  Algorithm 4 as an HO algorithm over a kernel oracle
  (:class:`~repro.adversaries.CounterKernelOracle`), fully
  replica-vectorisable through the ordinary ``batch`` backend via
  :class:`~repro.predimpl.batched_translation.BatchTranslationKernel`.

The step scenarios register :data:`STEP_BACKEND_ALIASES`, so the sweep's
generic ``--backend`` choices resolve to the step-path backends without
the executor knowing what a step replica is -- and a single-seed run
(:func:`~repro.workloads.batched.run_seed`) lands on ``step-scalar``.
Scalar-vs-batched bit-identity per seed is the contract everywhere, pinned
by the equivalence tests.  No scenario here retains a trace: records are
the trace-free round-level projection of each replica.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from ..adversaries import CounterKernelOracle, HOOracleBase, IntersectOracle
from ..algorithms import OneThirdRule
from ..engine.rng import SeededRng
from ..predimpl.step_backend import (
    ARBITRARY_GOOD,
    DOWN_GOOD,
    StepEnvironment,
    step_horizon_rounds,
)
from ..predimpl.translation import KernelToUniformTranslation
from ..rounds.backend import CellPlan, ReplicaTask
from ..runner.registry import REGISTRY
from .batched import _classic_values, cell_plan, fault_overlay, run_seed
from .scenarios import _scope_for

#: How the sweep's generic backend choices resolve for step-path scenarios
#: (registered as the scenarios' ``backend_aliases``).
STEP_BACKEND_ALIASES = {
    "auto": "step-batch",
    "batch": "step-batch",
    "compiled": "step-batch",
    "super": "step-batch",
    "scalar": "step-scalar",
}


# --------------------------------------------------------------------------- #
# the step-path scenarios (Theorems 3/5 down-good, 6/7/8 arbitrary-good)
# --------------------------------------------------------------------------- #


def build_step_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    kind: str = DOWN_GOOD,
    phi: float = 1.0,
    delta: float = 2.0,
    f: Optional[int] = None,
    use_translation: bool = True,
    bad_period_length: float = 80.0,
    good_period_length: float = 400.0,
    rounds: Optional[int] = None,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
) -> CellPlan:
    """Build one step-path sweep cell -- all *seeds* of one stack/fault pair -- as data.

    One :class:`~repro.rounds.backend.ReplicaTask` per seed, carrying the
    :class:`~repro.predimpl.step_backend.StepEnvironment` as its oracle and
    the seed-shuffled initial values; the flattener produces the sweep's
    per-replica wire dicts over the backends' round-level projection
    (latency in rounds, an all-to-all message count per round), so scalar
    and batched sweeps of the same cell are comparable record for record.
    """
    if f is None:
        f = (n - 1) // 3 if kind == ARBITRARY_GOOD else 0
    env = StepEnvironment(
        kind=kind,
        fault_model=fault_model,
        phi=phi,
        delta=delta,
        f=f,
        use_translation=use_translation,
        bad_period_length=bad_period_length,
        good_period_length=good_period_length,
    )
    if rounds is None:
        rounds = step_horizon_rounds(env, n)
    tasks = [
        ReplicaTask(
            seed=seed,
            algorithm=OneThirdRule(n),
            oracle=env,
            initial_values=_classic_values(n, SeededRng(seed)),
        )
        for seed in seeds
    ]
    return cell_plan(
        n, tasks, rounds, _scope_for(fault_model, n),
        predicates, stop_after_held, run_full_horizon, completion_scope=True,
    )


# --------------------------------------------------------------------------- #
# the round-level Theorem 8 cell: Algorithm 4 over a kernel oracle
# --------------------------------------------------------------------------- #


def build_translation_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    f: Optional[int] = None,
    rounds: Optional[int] = None,
    loss_probability: float = 0.2,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
) -> CellPlan:
    """Build one Theorem 8 sweep cell as data.

    OneThirdRule under Algorithm 4 over a ``P_k`` kernel oracle: the
    kernel ``pi0 = {0..n-f-1}`` hears of itself every round, so every
    macro-round of ``f+1`` kernel rounds yields a space-uniform ``NewHO``
    of at least ``n - f`` processes and the embedded OneThirdRule decides
    (Theorem 8 at round granularity).  The fault-model overlays intersect
    the kernel exactly like the ``ho-round-*`` scenarios' overlays.

    *f* defaults to the largest value with both ``n > 2f`` (Algorithm 4's
    own requirement) and ``n > 3f`` (which additionally lets the embedded
    OneThirdRule decide from ``NewHO`` sets of size ``n - f``), so the
    default cell terminates in a fault-free kernel.  The ``batch`` backend
    vectorises these cells end to end: the transitions through
    :class:`~repro.predimpl.batched_translation.BatchTranslationKernel`,
    the fault-free environment through
    :class:`~repro.adversaries.counter_batch.CounterKernelBatchDual`.
    """
    if f is None:
        f = (n - 1) // 3
    # The algorithm validates f before pi0 = {0..n-f-1} and its oracle exist.
    algorithm = KernelToUniformTranslation(OneThirdRule(n), f)
    if rounds is None:
        rounds = max(60, 12 * (f + 1))
    pi0 = list(range(n - f))
    tasks: List[ReplicaTask] = []
    for seed in seeds:
        rng = SeededRng(seed)
        values = _classic_values(n, rng)
        oracle: HOOracleBase = CounterKernelOracle(n, pi0, rng=rng)
        overlay = fault_overlay(
            fault_model, n, rounds // 6, loss_probability, rng.spawn("overlay")
        )
        if overlay is not None:
            oracle = IntersectOracle(n, oracle, overlay)
        tasks.append(
            ReplicaTask(seed=seed, algorithm=algorithm, oracle=oracle, initial_values=values)
        )
    return cell_plan(
        n, tasks, rounds, frozenset(pi0) & _scope_for(fault_model, n),
        predicates, stop_after_held, run_full_horizon,
    )


for _name, _kind in (("ho-step-down-otr", DOWN_GOOD), ("ho-step-arbitrary-otr", ARBITRARY_GOOD)):
    REGISTRY.register_scenario(
        _name,
        partial(run_seed, _name),
        monitorable=True,
        batch_builder=partial(build_step_batch, kind=_kind),
        backend_aliases=STEP_BACKEND_ALIASES,
    )
REGISTRY.register_scenario(
    "ho-theorem8-translation",
    partial(run_seed, "ho-theorem8-translation"),
    monitorable=True,
    batch_builder=build_translation_batch,
)


__all__ = [
    "STEP_BACKEND_ALIASES",
    "build_step_batch",
    "build_translation_batch",
]
