"""The ``ho-classic-*`` scenarios: the oracle-driven hot path, batchable per cell.

These scenarios exist for exactly the experiment shape the paper measures:
one algorithm, one classic fault model, R seeds, aggregate.  Each run is a
pure lockstep round-level execution (no step-level simulator), so a sweep
cell of R seeds can be executed either as R independent scalar runs or as
*one* vectorised replica batch -- and the two must agree bit for bit.

Three scenarios are registered, one per consensus algorithm:

* ``ho-classic-otr`` -- OneThirdRule,
* ``ho-classic-uv``  -- UniformVoting,
* ``ho-classic-lv``  -- LastVoting,

each crossed with the standard fault-model axis, expressed purely with the
classic oracle zoo:

* ``fault-free``     -- :class:`FaultFreeOracle`;
* ``crash-stop``     -- :class:`StaticCrashOracle` silencing the last
  process from round 3 (replica-invariant: broadcast across the batch);
* ``crash-recovery`` -- a :class:`SequenceOracle` partition schedule:
  fault-free rounds, a transient crash window of the last process, then
  fault-free again (still replica-invariant);
* ``lossy``          -- :class:`RandomOmissionOracle` (seeded, stateful:
  the batch backend engages its automatic per-replica fallback loop for
  the environment while the transitions stay vectorised).

Replicas differ even under the deterministic fault models because every
seed shuffles the initial-value assignment through the run's
``values`` :class:`~repro.engine.rng.SeededRng` sub-stream -- the
round-level analogue of drawing a workload per seed.

``build_classic_batch`` is the one definition of a cell.  A single-seed run
of this or any other batchable scenario is :func:`run_seed`: the registered
builder at ``seeds=(seed,)`` on the scenario's scalar backend, projected by
:func:`project_outcome` exactly like every batched replica.  The
equivalence tests pin that reference against every backend per seed.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..adversaries import (
    FaultFreeOracle,
    HOOracleBase,
    RandomOmissionOracle,
    SequenceOracle,
    StaticCrashOracle,
)
from ..algorithms import LastVoting, OneThirdRule, UniformVoting
from ..analysis.consensus_check import ConsensusVerdict, check_consensus
from ..analysis.metrics import RunMetrics
from ..engine.rng import SeededRng
from ..rounds.backend import (
    CellPlan,
    MonitorSpec,
    ReplicaBatch,
    ReplicaOutcome,
    ReplicaTask,
    get_backend,
)
from ..rounds.bitmask import iter_bits, mask_of
from ..runner.registry import REGISTRY
from .scenarios import FAULT_MODELS, ScenarioResult, _initial_values, _scope_for

#: algorithm key -> class, as accepted by the scenarios' ``algorithm`` param.
CLASSIC_ALGORITHMS = {
    "otr": OneThirdRule,
    "uv": UniformVoting,
    "lv": LastVoting,
}

#: round the crash-stop fault model silences the last process from.
CRASH_ROUND = 3


def _classic_values(n: int, rng: SeededRng) -> List[int]:
    """The run's initial values: the standard ladder, seed-shuffled.

    The shuffle draws from the ``values`` sub-stream, so it never perturbs
    oracle noise -- and replica i of a batch shuffles exactly like the
    single run with seed ``seed + i`` (see :meth:`SeededRng.replicate`).
    """
    values = _initial_values(n)
    rng.stream("values").shuffle(values)
    return values


def fault_overlay(
    fault_model: str, n: int, window: int, loss_probability: float, loss_rng: SeededRng
) -> Optional[HOOracleBase]:
    """The fault-model axis as an oracle to intersect a family with (None = fault-free).

    ``crash-stop`` silences the last process for good from
    :data:`CRASH_ROUND`; ``crash-recovery`` is a transient crash scripted
    with :class:`SequenceOracle` -- fault-free, the last process down for
    *window* rounds, fault-free again; ``lossy`` drops every message
    independently with *loss_probability*, drawing from *loss_rng*.

    This is also where the round-level builders reject an unknown fault
    model: once per seed, so a cell built with no seeds validates nothing.
    """
    if fault_model == "fault-free":
        return None
    if fault_model == "crash-stop":
        return StaticCrashOracle(n, {n - 1: CRASH_ROUND})
    if fault_model == "crash-recovery":
        return SequenceOracle(
            n,
            [
                (FaultFreeOracle(n), max(2, window) - 1),
                (StaticCrashOracle(n, {n - 1: 1}), max(1, window)),
                (FaultFreeOracle(n), None),
            ],
        )
    if fault_model == "lossy":
        return RandomOmissionOracle(n, loss_probability, rng=loss_rng)
    raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")


class _DecisionsView:
    """Adapt a backend outcome's decision table to the trace checker protocol."""

    def __init__(self, decisions: Dict[int, Any]) -> None:
        self._decisions = decisions

    def decision_values(self) -> Dict[int, Any]:
        return dict(self._decisions)


def project_outcome(
    outcome: ReplicaOutcome, values: Sequence[Any], scope: Sequence[int]
) -> Tuple[ConsensusVerdict, RunMetrics]:
    """One backend outcome as a consensus verdict and round-level metrics.

    The one projection behind both record shapes (a batched cell's
    per-replica wire dict, a one-seed run's :class:`ScenarioResult`).  The
    verdict is the scalar scenario path's own :func:`check_consensus` over
    the trace-free decision table; the metrics mirror ``metrics_from_trace``
    scoped to the surviving processes, with times equal to round numbers.
    """
    verdict = check_consensus(_DecisionsView(outcome.decisions), values, scope=scope)
    scope_set = frozenset(scope)
    decided = {p: v for p, v in outcome.decisions.items() if p in scope_set}
    rounds = [outcome.decision_rounds[p] for p in decided]
    metrics = RunMetrics(
        decided_processes=len(decided),
        scope_size=len(scope_set),
        unanimous=len(set(decided.values())) <= 1,
        first_decision_time=float(min(rounds)) if rounds else None,
        last_decision_time=float(max(rounds)) if rounds else None,
        first_decision_round=min(rounds) if rounds else None,
        last_decision_round=max(rounds) if rounds else None,
        messages_sent=outcome.messages_sent,
    )
    return verdict, metrics


def _replica_outcome_dict(
    outcome: ReplicaOutcome, values: Sequence[Any], scope: Sequence[int]
) -> Dict[str, Any]:
    """Flatten one backend ReplicaOutcome into the sweep's wire shape."""
    verdict, metrics = project_outcome(outcome, values, scope)
    return {
        "seed": outcome.seed,
        "solved": verdict.solved,
        "safe": verdict.safe,
        "terminated": verdict.termination,
        "decided_processes": metrics.decided_processes,
        "scope_size": metrics.scope_size,
        "first_decision_time": metrics.first_decision_time,
        "last_decision_time": metrics.last_decision_time,
        "messages_sent": metrics.messages_sent,
        "error": None,
        "predicates": outcome.predicate_reports,
    }


def cell_plan(
    n: int,
    tasks: List[ReplicaTask],
    rounds: int,
    scope: Iterable[int],
    predicates: Optional[Sequence[str]],
    stop_after_held: Optional[int],
    run_full_horizon: bool,
    completion_scope: bool = False,
) -> CellPlan:
    """The tail every family's builder ends in: monitors, batch, flattener.

    *scope* is the cell's Π0: the processes whose decisions end a replica,
    the monitors' Pi0 and the scope of the wire verdict.
    """
    if stop_after_held is not None and not predicates:
        raise ValueError("stop_after_held requires at least one monitored predicate")
    scope = sorted(scope)
    monitor_spec: Optional[MonitorSpec] = None
    if predicates:
        monitor_spec = MonitorSpec(
            predicates=tuple(predicates),
            pi0_mask=mask_of(scope),
            stop_after_held=stop_after_held,
            completion_scope=completion_scope,
        )
    batch = ReplicaBatch(
        n=n,
        tasks=tasks,
        max_rounds=rounds,
        scope_mask=mask_of(scope),
        run_full_horizon=run_full_horizon,
        monitor_spec=monitor_spec,
    )

    def finalize(outcomes: Sequence[Any]) -> List[Dict[str, Any]]:
        return [
            _replica_outcome_dict(outcome, task.initial_values, scope)
            for outcome, task in zip(outcomes, tasks)
        ]

    return CellPlan(batch=batch, finalize=finalize)


def run_seed(
    scenario: str, fault_model: str, n: int = 4, seed: int = 0, **params: Any
) -> ScenarioResult:
    """Run one seed of batchable *scenario* on its scalar reference backend.

    The single-seed runner registered for every batchable scenario: the
    scenario's builder at ``seeds=(seed,)``, executed by the backend the
    scenario resolves ``scalar`` to (``scalar``, or ``step-scalar`` for step
    cells) and projected by :func:`project_outcome` -- the one reference and
    the one projection every batched replica goes through.  *params* are the
    builder's keywords.
    """
    plan = REGISTRY.batch_builder(scenario)(fault_model, n=n, seeds=(seed,), **params)
    batch = plan.batch
    (task,) = batch.tasks
    (outcome,) = get_backend(REGISTRY.resolve_backend(scenario, "scalar")).run(batch)
    scope = list(iter_bits(batch.effective_scope_mask))
    verdict, metrics = project_outcome(outcome, task.initial_values, scope)
    extra: Dict[str, Any] = {
        "rounds": batch.max_rounds,
        "rounds_executed": outcome.rounds_executed,
    }
    if batch.monitor_spec is not None:
        extra["predicate_reports"] = outcome.predicate_reports
        extra["stopped_early"] = outcome.stopped_early
    return ScenarioResult(
        stack=scenario,
        fault_model=fault_model,
        n=n,
        seed=seed,
        verdict=verdict,
        metrics=metrics,
        extra=extra,
    )


def build_classic_batch(
    fault_model: str,
    n: int = 4,
    seeds: Sequence[int] = (0,),
    algorithm: str = "otr",
    rounds: int = 60,
    loss_probability: float = 0.2,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
    run_full_horizon: bool = False,
) -> CellPlan:
    """Build one sweep cell -- all *seeds* of one classic scenario -- as data.

    One :class:`~repro.rounds.backend.ReplicaTask` per seed (algorithm,
    oracle, seed-shuffled values) plus the flattener from backend outcomes
    to the sweep's per-replica wire dicts.  *predicates* attaches streaming
    monitors scoped to the surviving processes, *stop_after_held* adds the
    early-stop policy, and *run_full_horizon* keeps executing after the
    scope decided.  Execution is the caller's choice: :func:`run_seed`
    runs one seed on the scalar reference, the sweep hands the batch to one
    backend, the super-batch path packs many plans into one engine run.
    """
    if algorithm not in CLASSIC_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(CLASSIC_ALGORITHMS)}"
        )
    algorithm_class = CLASSIC_ALGORITHMS[algorithm]
    tasks: List[ReplicaTask] = []
    for seed in seeds:
        rng = SeededRng(seed)
        values = _classic_values(n, rng)
        # crash-recovery: the down window sits in the first half of the horizon.
        overlay = fault_overlay(fault_model, n, rounds // 6, loss_probability, rng)
        oracle = FaultFreeOracle(n) if overlay is None else overlay
        tasks.append(ReplicaTask(seed=seed, algorithm=algorithm_class(n), oracle=oracle,
                                 initial_values=values))
    return cell_plan(
        n, tasks, rounds, _scope_for(fault_model, n),
        predicates, stop_after_held, run_full_horizon,
    )


for _key in CLASSIC_ALGORITHMS:
    REGISTRY.register_scenario(
        f"ho-classic-{_key}",
        partial(run_seed, f"ho-classic-{_key}"),
        monitorable=True,
        batch_builder=partial(build_classic_batch, algorithm=_key),
    )


__all__ = [
    "CLASSIC_ALGORITHMS",
    "fault_overlay",
    "cell_plan",
    "project_outcome",
    "run_seed",
    "build_classic_batch",
]
