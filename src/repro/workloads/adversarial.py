"""Round-level adversarial scenarios: the dynamic-fault sweep matrix.

Each scenario runs OneThirdRule in lockstep rounds (the shared
:class:`~repro.rounds.RoundEngine` on the scalar reference, or any batched
backend) under one of the dynamic adversary families of
:mod:`repro.adversaries.dynamic`, crossed with the standard fault-model
axis.  The fault-model overlays are themselves built with the oracle
combinators -- composition by :class:`IntersectOracle`, transient
crashes by a :class:`SequenceOracle` of crash and fault-free phases -- so
the sweep exercises the whole adversary algebra:

* ``fault-free``     -- the dynamic family alone;
* ``crash-stop``     -- plus a permanent crash of the last process;
* ``crash-recovery`` -- plus a transient crash window for the last process;
* ``lossy``          -- plus independent 20% message loss.

Every family stabilises at ``stabilize_round`` (its churn stops and
communication becomes fault free for the surviving processes), so these runs
terminate for the processes in scope -- the round-level analogue of a good
period after a bad one.  Scenarios are registered with
:mod:`repro.runner.registry` under ``ho-round-<family>`` -- the cell builder
:func:`build_round_adversary_batch`, whose single-seed run is
:func:`~repro.workloads.batched.run_seed` -- so ``python -m repro.runner``
sweeps cover the dynamic-fault matrix.

One master :class:`~repro.engine.rng.SeededRng` per run feeds every oracle
through named sub-streams, so a single seed controls the whole environment.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from ..adversaries import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    HOOracleBase,
    IntersectOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
)
from ..algorithms import OneThirdRule
from ..engine.rng import SeededRng
from ..rounds.backend import CellPlan, ReplicaTask
from ..runner.registry import REGISTRY
from .batched import cell_plan, fault_overlay, run_seed
from .scenarios import _initial_values, _scope_for

#: The dynamic adversary families swept by the ``ho-round-*`` scenarios.
ROUND_FAMILIES = (
    "mobile-omission",
    "rotating-partition",
    "bursty-loss",
    "eventually-stable-coordinator",
)


#: per-family default knobs; any keyword of the family's oracle constructor
#: may be overridden through the scenario's **params.
_FAMILY_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "mobile-omission": {"faults": None},  # None -> max(1, n // 4)
    "rotating-partition": {"blocks": 2, "period": 4, "churn": 0.3},
    "bursty-loss": {"p_burst": 0.15, "p_recover": 0.3, "loss_burst": 1.0, "loss_good": 0.0},
    "eventually-stable-coordinator": {
        "stable_coordinator": 0,
        "flaky_probability": 0.3,
        "background_probability": 0.4,
    },
}

_FAMILY_CLASSES = {
    "mobile-omission": MobileOmissionOracle,
    "rotating-partition": RotatingPartitionOracle,
    "bursty-loss": BurstyLossOracle,
    "eventually-stable-coordinator": EventuallyStableCoordinatorOracle,
}

#: the constructor keyword each family takes its stabilisation round under.
_STABILITY_KEYS = {
    "mobile-omission": "stable_from",
    "rotating-partition": "heal_from",
    "bursty-loss": "stable_from",
    "eventually-stable-coordinator": "stable_from",
}


def _family_oracle(
    family: str, n: int, stabilize_round: int, rng: SeededRng, params: Dict[str, Any]
) -> HOOracleBase:
    if family not in _FAMILY_CLASSES:
        raise ValueError(
            f"unknown adversary family {family!r}; expected one of {ROUND_FAMILIES}"
        )
    kwargs = dict(_FAMILY_DEFAULTS[family])
    unknown = set(params) - set(kwargs)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for family {family!r}; "
            f"known: {sorted(kwargs)}"
        )
    kwargs.update(params)
    if family == "mobile-omission" and kwargs["faults"] is None:
        kwargs["faults"] = max(1, n // 4)
    kwargs[_STABILITY_KEYS[family]] = stabilize_round
    return _FAMILY_CLASSES[family](n, rng=rng.spawn("family"), **kwargs)


def build_round_adversary_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    family: str = "mobile-omission",
    rounds: int = 80,
    stabilize_round: Optional[int] = None,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
    **params: Any,
) -> CellPlan:
    """Build one dynamic-adversary sweep cell -- OneThirdRule under *family* -- as data.

    The environment of each seed is ``IntersectOracle(family, overlay)``:
    the counter-based dynamic family provides the churn, the fault-model
    overlay (:func:`~repro.workloads.batched.fault_overlay`, its transient
    crash inside the unstable phase, 20% loss when lossy) the
    static/transient crashes or extra loss.  Latency is measured in rounds.

    *predicates* names streaming monitors (:data:`repro.predicates.MONITOR_NAMES`)
    scoped to the fault model's surviving processes.  *stop_after_held*
    additionally stops a run once any monitored predicate's good condition
    held for that many consecutive rounds.  *run_full_horizon* keeps
    executing rounds after every in-scope process decided (monitored runs
    measuring first-hold rounds want the whole horizon, not the decision
    prefix); early-stop policies still apply.  *stabilize_round* defaults to
    the middle of the horizon.  Under the lossy overlay the
    post-stabilisation rounds still lose messages, so a decision is likely
    but not certain within the horizon.
    """
    if stabilize_round is None:
        stabilize_round = max(2, rounds // 2)
    values = _initial_values(n)
    tasks: List[ReplicaTask] = []
    for seed in seeds:
        rng = SeededRng(seed)
        oracle: HOOracleBase = _family_oracle(family, n, stabilize_round, rng, params)
        overlay = fault_overlay(fault_model, n, stabilize_round // 3, 0.2, rng.spawn("overlay"))
        if overlay is not None:
            oracle = IntersectOracle(n, oracle, overlay)
        tasks.append(
            ReplicaTask(
                seed=seed,
                algorithm=OneThirdRule(n),
                oracle=oracle,
                initial_values=list(values),
            )
        )
    return cell_plan(
        n, tasks, rounds, _scope_for(fault_model, n),
        predicates, stop_after_held, run_full_horizon,
    )


for _family in ROUND_FAMILIES:
    REGISTRY.register_scenario(
        f"ho-round-{_family}",
        partial(run_seed, f"ho-round-{_family}"),
        monitorable=True,
        batch_builder=partial(build_round_adversary_batch, family=_family),
    )


__all__ = [
    "ROUND_FAMILIES",
    "build_round_adversary_batch",
]
