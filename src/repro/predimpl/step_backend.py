"""The step-path execution backends: the crash-recovery stacks behind ReplicaBatch.

The round-level backends (:mod:`repro.rounds.backend`, :mod:`repro.batch`)
execute oracle-driven lockstep runs; the theorems of Sections 4 and 5 are
instead statements about the *step-level* stacks -- Algorithm 2 in pi0-down
good periods, Algorithm 3 (optionally under the Algorithm 4 translation) in
pi0-arbitrary good periods -- running on the discrete-event
:class:`~repro.sysmodel.simulator.SystemSimulator`.  This module puts those
stacks behind the same :class:`~repro.rounds.backend.ReplicaBatch` /
:class:`~repro.rounds.backend.ReplicaOutcome` unit of work, so sweeps,
benchmarks and the CLI choose *how* R seeded replicas execute without
knowing *what* a replica is:

* ``step-scalar`` -- :class:`ScalarStepBackend`, the reference: one full
  :class:`SystemSimulator` run per replica, its
  :class:`~repro.sysmodel.trace.SystemRunTrace` projected onto the
  round-level outcome schema (see below);
* ``step-batch`` -- :class:`BatchStepBackend`: cells whose step-level run
  is provably round-equivalent -- the fault-free, always-good pi0-down
  stack, where every synchronous process steps every ``good_step_gap`` and
  every round's heard-of set is the whole of Pi -- are *lowered* to a
  round-level :class:`ReplicaBatch` over the same upper algorithm and a
  :class:`~repro.adversaries.FaultFreeOracle`, executed by the vectorised
  ``batch`` backend, monitors and fingerprints included.  Everything else
  (arbitrary-timing event interleavings of faulty cells, the Algorithm 3
  init/round wire protocol) degrades per cell to the scalar step path,
  with the reason recorded in ``last_fallback_reason`` -- exactly the
  :class:`~repro.batch.super.SuperBatchBackend` degradation discipline.

A replica's "oracle" on the step path is a :class:`StepEnvironment`: the
declarative description of the stack kind, fault model and synchrony
parameters from which both backends rebuild identical simulations (the
step path has no heard-of oracle -- the environment plays its role as the
per-replica source of nondeterminism, seeded by ``ReplicaTask.seed``).

**The round-level projection.**  Outcomes are comparable across the round
and step worlds because the step trace is projected to round granularity:

* ``decisions`` / ``decision_rounds`` come from the trace's first-decision
  records;
* ``rounds_executed`` is the round the scalar round loop would have
  stopped at: the largest scoped decision round when the scope decided
  (and the horizon was not exceeded), otherwise the last round completed
  by every scoped process, clamped to ``max_rounds``;
* ``messages_sent`` is ``n * n * rounds_executed`` (every round-level
  backend accounts a full all-to-all per round -- step-level wire counts,
  retransmissions and INIT traffic live in the full trace, not here);
* ``messages_delivered`` sums the heard-of popcounts of the executed
  rounds' records, exactly like the round engines;
* fingerprints digest the executed rounds' records in process order --
  the scalar round backend's natural record order -- so the lowered
  fault-free cell is pinned bit-identical to ``step-scalar`` round by
  round, not just on final decisions;
* ``predicate_reports`` cover rounds ``1..rounds_executed``: the simulator
  stops mid-round, and a round some process had already begun reporting
  when it stopped is not a round the run executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..rounds.backend import (
    ReplicaBatch,
    ReplicaFingerprint,
    ReplicaOutcome,
    ReplicaTask,
    finish_fingerprint,
    get_backend,
    register_backend,
)
from ..rounds.bitmask import iter_bits
from ..rounds.fallback import FallbackReason
from ..rounds.record import RoundRecord
from ..sysmodel import (
    BadPeriodNetwork,
    BadPeriodProcessBehavior,
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemSimulator,
)
from .stack import build_arbitrary_stack, build_down_stack

#: The two predicate-implementation stacks a step replica can run.
DOWN_GOOD = "down-good"
ARBITRARY_GOOD = "arbitrary-good"
STEP_KINDS = (DOWN_GOOD, ARBITRARY_GOOD)

#: The fault-model axis of every scenario: the step environments here and
#: the workloads' grids above (``repro.workloads.FAULT_MODELS``).
FAULT_MODELS = ("fault-free", "crash-stop", "crash-recovery", "lossy")


@dataclass(frozen=True)
class StepEnvironment:
    """The declarative per-replica description of one step-level run.

    Carried in ``ReplicaTask.oracle``: on the step path the environment is
    the oracle -- it fixes the stack (*kind*), the fault schedule
    (*fault_model*, with the same schedules the ``ho-stack`` scenario
    uses), the synchrony bounds and, for the arbitrary stack, the
    resilience *f* and whether Algorithm 4 sits between the upper
    algorithm and Algorithm 3.  ``ReplicaTask.seed`` seeds the simulator's
    ``steps``/``network`` sub-streams, so two tasks with equal
    environments and equal seeds replay the same run exactly.
    """

    kind: str = DOWN_GOOD
    fault_model: str = "fault-free"
    phi: float = 1.0
    delta: float = 2.0
    f: int = 0
    use_translation: bool = True
    bad_period_length: float = 80.0
    good_period_length: float = 400.0

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step stack kind {self.kind!r}; expected one of {STEP_KINDS}")
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {self.fault_model!r}; expected one of {FAULT_MODELS}"
            )
        if self.f < 0:
            raise ValueError(f"f must be non-negative, got {self.f}")

    def params(self) -> SynchronyParams:
        return SynchronyParams(phi=self.phi, delta=self.delta)

    def round_timeout(self, n: int) -> int:
        """The receive-step budget of one round of the underlying algorithm."""
        params = self.params()
        if self.kind == DOWN_GOOD:
            return params.algorithm2_timeout(n)
        return params.algorithm3_timeout(n)


def _environment_of(task: ReplicaTask) -> StepEnvironment:
    env = task.oracle
    if not isinstance(env, StepEnvironment):
        raise TypeError(
            "step-path backends expect a StepEnvironment in ReplicaTask.oracle, "
            f"got {type(env).__name__}"
        )
    return env


def _fault_plan(
    env: StepEnvironment, n: int
) -> Tuple[PeriodSchedule, FaultSchedule, bool]:
    """The period schedule, fault schedule and bad-period lossiness of a cell.

    The one spelling of the fault-model axis at step level: the step
    backends and the ``ho-stack`` scenario
    (:func:`repro.workloads.run_ho_stack`) both read it through
    :func:`build_step_simulator`.
    """
    if env.fault_model == "fault-free":
        return PeriodSchedule.always_good(n, GoodPeriodKind.PI_GOOD), FaultSchedule.none(), False
    if env.fault_model == "crash-stop":
        pi0 = frozenset(range(n - 1))
        faults = FaultSchedule.crash_stop([(n - 1, env.bad_period_length / 4)])
        schedule = PeriodSchedule.single_good_period(
            n, start=env.bad_period_length, length=env.good_period_length,
            kind=GoodPeriodKind.PI0_DOWN, pi0=pi0,
        )
        return schedule, faults, True
    if env.fault_model == "crash-recovery":
        incidents = [
            (p, env.bad_period_length * (0.1 + 0.15 * p), env.bad_period_length * (0.3 + 0.15 * p))
            for p in range(n)
        ]
        faults = FaultSchedule.crash_recovery(incidents)
        schedule = PeriodSchedule.single_good_period(
            n, start=env.bad_period_length, length=env.good_period_length,
            kind=GoodPeriodKind.PI0_DOWN,
        )
        return schedule, faults, True
    # "lossy": no crashes, only bad-period message loss before the good period.
    schedule = PeriodSchedule.single_good_period(
        n, start=env.bad_period_length, length=env.good_period_length,
        kind=GoodPeriodKind.PI0_DOWN,
    )
    return schedule, FaultSchedule.none(), True


def build_step_simulator(
    env: StepEnvironment, programs: Sequence[Any], trace: Any, seed: int
) -> SystemSimulator:
    """The :class:`SystemSimulator` of one step-level run under *env*.

    The one place the fault plan meets the bad-period network and process
    constants.  The step backends and the ``ho-stack`` scenario both build
    here and keep their own ``until``/``stop_when``, so one seed replays
    the same run on either.
    """
    schedule, faults, lossy = _fault_plan(env, len(programs))
    return SystemSimulator(
        programs,
        env.params(),
        schedule,
        fault_schedule=faults,
        bad_network=BadPeriodNetwork(
            loss_probability=0.5 if lossy else 0.0, min_delay=1.0, max_delay=30.0
        ),
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=5.0, stall_probability=0.2
        ),
        seed=seed,
        trace=trace,
    )


class ScalarStepBackend:
    """The step-path reference: one SystemSimulator run per replica.

    Every replica builds its predicate stack (Algorithm 2 for
    ``down-good``, Algorithm 3 [+ Algorithm 4] for ``arbitrary-good``),
    runs it under the environment's fault plan with the task's seed, and
    projects the trace to the round-level outcome schema described in the
    module docstring.  ``step-batch`` is specified by bit-identity against
    this backend, per seed, exactly as ``batch`` is against ``scalar``.
    """

    name = "step-scalar"

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        return [self._run_replica(batch, task) for task in batch.tasks]

    def _run_replica(self, batch: ReplicaBatch, task: ReplicaTask) -> ReplicaOutcome:
        env = _environment_of(task)
        n = batch.n
        algorithm = task.algorithm
        scope = tuple(iter_bits(batch.effective_scope_mask))
        if not scope and not batch.run_full_horizon:
            # The scalar round loop runs zero rounds for an empty scope;
            # mirror it without spinning up a simulator.
            return self._empty_outcome(batch, task)
        monitor = batch.monitor_spec.scalar_bank(n) if batch.monitor_spec is not None else None
        observers: Tuple[Any, ...] = (monitor,) if monitor is not None else ()
        params = env.params()
        if env.kind == DOWN_GOOD:
            stack = build_down_stack(
                algorithm, list(task.initial_values), params, observers=observers
            )
        else:
            stack = build_arbitrary_stack(
                algorithm, env.f, list(task.initial_values), params,
                use_translation=env.use_translation, observers=observers,
            )
        trace = stack.trace
        simulator = build_step_simulator(env, stack.programs, trace, task.seed)
        until = self._horizon_time(env, batch, n)
        stop_when = self._stop_predicate(env, batch, trace, monitor, scope)
        simulator.run(until=until, stop_when=stop_when)
        return self._derive_outcome(batch, task, trace, monitor, scope)

    # ------------------------------------------------------------------ #
    # run-length policy
    # ------------------------------------------------------------------ #

    @staticmethod
    def _horizon_time(env: StepEnvironment, batch: ReplicaBatch, n: int) -> float:
        """Simulated-time budget covering the batch's round horizon.

        Fault-free cells are always-good, so time is sized generously from
        the per-round step budget (one send step plus the receive-step
        timeout, each ``good_step_gap <= phi`` apart) and the *round*
        horizon binds.  Faulted cells keep the ``ho-stack`` scenario
        semantics -- one bad period followed by one good period -- and the
        *time* horizon binds.
        """
        if env.fault_model == "fault-free":
            per_round = (env.round_timeout(n) + 2) * env.phi
            return (batch.max_rounds + 2) * per_round
        return env.bad_period_length + env.good_period_length

    @staticmethod
    def _stop_predicate(
        env: StepEnvironment,
        batch: ReplicaBatch,
        trace: Any,
        monitor: Optional[Any],
        scope: Tuple[int, ...],
    ) -> Optional[Callable[[], bool]]:
        """The early-stop poll of one replica, compiled into a single closure.

        The simulator calls it after every event, so the three possible
        conditions are resolved to constants here and tested flat, cheapest
        first: a monitor's stop request, the scope having decided (decisions
        only ever grow, so the count gates the subset test), and -- for
        always-good runs, which have no meaningful time horizon -- the
        lockstep front passing the round horizon.
        """
        scope_set = frozenset(scope) if scope and not batch.run_full_horizon else None
        round_limit = batch.max_rounds if env.fault_model == "fault-free" else None
        if monitor is None and scope_set is None and round_limit is None:
            return None
        decisions = trace.decisions
        needed = len(scope)
        max_round = trace.max_round

        def stop() -> bool:
            if monitor is not None and getattr(monitor, "stop_requested", False):
                return True
            if (
                scope_set is not None
                and len(decisions) >= needed
                and scope_set.issubset(decisions)
            ):
                return True
            return round_limit is not None and max_round() > round_limit

        return stop

    # ------------------------------------------------------------------ #
    # the trace -> outcome projection
    # ------------------------------------------------------------------ #

    def _derive_outcome(
        self,
        batch: ReplicaBatch,
        task: ReplicaTask,
        trace: Any,
        monitor: Optional[Any],
        scope: Tuple[int, ...],
    ) -> ReplicaOutcome:
        scope_set = frozenset(scope)
        completed = self._completed_rounds(trace, scope_set)
        scoped_rounds = [
            record.round for p, record in trace.decisions.items() if p in scope_set
        ]
        scope_decided = bool(scope_set) and scope_set.issubset(trace.decisions)
        if (
            scope_decided
            and not batch.run_full_horizon
            and max(scoped_rounds) <= batch.max_rounds
        ):
            # The scalar round loop stops right after the round in which
            # the last scoped process decided.
            rounds_executed = max(scoped_rounds)
        else:
            rounds_executed = min(completed, batch.max_rounds)
        decisions: Dict[int, Any] = {}
        decision_rounds: Dict[int, int] = {}
        for p, record in trace.decisions.items():
            if record.round <= rounds_executed:
                decisions[p] = record.value
                decision_rounds[p] = record.round
        messages_sent = batch.n * batch.n * rounds_executed
        messages_delivered = 0
        by_round: Dict[int, List[RoundRecord]] = {}
        for record in trace.records:
            if 1 <= record.round <= rounds_executed:
                messages_delivered += bin(record.ho_mask).count("1")
                by_round.setdefault(record.round, []).append(record)
        fingerprint = None
        if batch.fingerprints:
            fingerprint = self._fingerprint(
                by_round, rounds_executed, decisions, decision_rounds,
                messages_sent, messages_delivered,
            )
        stopped_early = bool(getattr(monitor, "stop_requested", False))
        reports = None
        if monitor is not None:
            # The simulator stops mid-round (a fault-free run only once one
            # process is past the horizon); like everything above, the
            # reports cover the executed rounds and nothing after them.
            monitor.finalize(last_round=rounds_executed)
            reports = monitor.reports_json()
        return ReplicaOutcome(
            seed=task.seed,
            decisions=decisions,
            decision_rounds=decision_rounds,
            rounds_executed=rounds_executed,
            messages_sent=messages_sent,
            messages_delivered=messages_delivered,
            stopped_early=stopped_early,
            predicate_reports=reports,
            fingerprint=fingerprint,
        )

    @staticmethod
    def _completed_rounds(trace: Any, scope_set: frozenset) -> int:
        """The last round every scoped process has executed.

        The shared round engine fills skipped rounds with empty-view
        transitions, so each process's executed rounds are the contiguous
        prefix 1..k_p and the scope-completed round is ``min_p k_p``.
        """
        if not scope_set:
            return 0
        max_done = {p: 0 for p in scope_set}
        for (p, r) in trace.transition_times:
            if p in max_done and r > max_done[p]:
                max_done[p] = r
        return min(max_done.values())

    @staticmethod
    def _fingerprint(
        by_round: Dict[int, List[RoundRecord]],
        rounds_executed: int,
        decisions: Dict[int, Any],
        decision_rounds: Dict[int, int],
        messages_sent: int,
        messages_delivered: int,
    ) -> str:
        fingerprint = ReplicaFingerprint()
        for round in range(1, rounds_executed + 1):
            records = sorted(by_round.get(round, []), key=lambda record: record.process)
            seen: set = set()
            ordered: List[RoundRecord] = []
            for record in records:
                if record.process not in seen:
                    seen.add(record.process)
                    ordered.append(record)
            newly_decided = [
                (record.process, repr(decisions[record.process]))
                for record in ordered
                if decision_rounds.get(record.process) == round
            ]
            fingerprint.observe_round(
                round,
                [record.ho_mask for record in ordered],
                [repr(getattr(record.state_after, "x", None)) for record in ordered],
                newly_decided,
            )
        digest = finish_fingerprint(
            fingerprint, decisions, decision_rounds, rounds_executed,
            messages_sent, messages_delivered,
        )
        assert digest is not None
        return digest

    @staticmethod
    def _empty_outcome(batch: ReplicaBatch, task: ReplicaTask) -> ReplicaOutcome:
        fingerprint = ReplicaFingerprint() if batch.fingerprints else None
        return ReplicaOutcome(
            seed=task.seed,
            decisions={},
            decision_rounds={},
            rounds_executed=0,
            messages_sent=0,
            messages_delivered=0,
            stopped_early=False,
            predicate_reports=None,
            fingerprint=finish_fingerprint(fingerprint, {}, {}, 0, 0, 0),
        )


class BatchStepBackend:
    """Vectorised step-path execution where lockstep holds, scalar elsewhere.

    The only cells whose step-level runs are round-equivalent -- and hence
    lowerable to the vectorised round engine -- are the fault-free,
    always-good ``down-good`` cells: every process is synchronous from
    time 0, steps every ``good_step_gap``, nothing is lost or delayed
    beyond ``delta``, and Algorithm 2's receive loop only ends at its
    timeout, so every process executes round r's transition with
    ``HO = Pi`` in lockstep.  Such a cell *is* the upper algorithm under a
    :class:`FaultFreeOracle`, round for round, and runs as one
    ``(R, n, ceil(n/64))`` batched unit, its monitors the batch monitors
    of the same :class:`~repro.rounds.backend.MonitorSpec`.  Every other
    cell -- faulty schedules (down processes take no steps; bad-period
    timing is event-granular) and the ``arbitrary-good`` stack (its
    INIT/round wire protocol and the translation's message timing are not
    round-shaped until the good period stabilises) -- degrades per cell to
    :class:`ScalarStepBackend`, with the reason in
    ``last_fallback_reason``.
    """

    name = "step-batch"

    def __init__(self) -> None:
        self._scalar = ScalarStepBackend()
        #: why the last ``run`` degraded to the scalar step path (None =
        #: it lowered to the vectorised round engine).
        self.last_fallback_reason: Optional[str] = None

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        reason = self._fallback_reason(batch)
        self.last_fallback_reason = reason
        if reason is not None:
            return self._scalar.run(batch)
        return self._run_lowered(batch)

    # ------------------------------------------------------------------ #
    # the lowering decision
    # ------------------------------------------------------------------ #

    def _fallback_reason(self, batch: ReplicaBatch) -> Optional[str]:
        environments = {_environment_of(task) for task in batch.tasks}
        if len(environments) != 1:
            return FallbackReason.MIXED_STEP_ENVIRONMENTS.render()
        env = next(iter(environments))
        if env.kind != DOWN_GOOD:
            return FallbackReason.ARBITRARY_GOOD_STACK.render()
        if env.fault_model != "fault-free":
            return FallbackReason.FAULTED_STEP_CELL.render(fault_model=env.fault_model)
        return None

    # ------------------------------------------------------------------ #
    # the lowering itself
    # ------------------------------------------------------------------ #

    @staticmethod
    def _run_lowered(batch: ReplicaBatch) -> List[ReplicaOutcome]:
        from ..adversaries import FaultFreeOracle

        # The same cell -- scope, horizon, monitors, fingerprints -- with the
        # step environment swapped for the oracle it is equivalent to.
        lowered = replace(
            batch,
            tasks=[replace(task, oracle=FaultFreeOracle(batch.n)) for task in batch.tasks],
        )
        return get_backend("batch").run(lowered)


def step_horizon_rounds(env: StepEnvironment, n: int) -> int:
    """A round horizon safely covering a cell's time budget.

    Faulted cells are bounded by simulated time, not rounds; scenario code
    still needs a ``max_rounds`` for the outcome projection.  One round
    costs at least one send step plus the receive-step timeout at unit
    step gaps, so this bound (plus a margin of four rounds) can never
    truncate a run's executed rounds.
    """
    budget = env.bad_period_length + env.good_period_length
    return 4 + math.ceil(budget / (env.round_timeout(n) + 1))


register_backend(ScalarStepBackend())
register_backend(BatchStepBackend())


__all__ = [
    "ARBITRARY_GOOD",
    "DOWN_GOOD",
    "FAULT_MODELS",
    "STEP_KINDS",
    "StepEnvironment",
    "ScalarStepBackend",
    "BatchStepBackend",
    "build_step_simulator",
    "step_horizon_rounds",
]
