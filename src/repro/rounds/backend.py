"""Pluggable execution backends for oracle-driven replica batches.

Every measurement the paper makes (Table 1, Section 4.2, the 2f+3
translation bound) is a statement about a *distribution over runs*: the same
heard-of-oracle scenario, executed under R seeds, then aggregated.  An
:class:`ExecutionBackend` owns exactly that unit of work -- a
:class:`ReplicaBatch` of R seeded replicas of one lockstep scenario -- and
returns one :class:`ReplicaOutcome` per replica.

Six backends register (``scalar``, ``batch``, ``super``, ``compiled`` and
the step-path pair ``step-scalar`` / ``step-batch`` of
:mod:`repro.predimpl.step_backend`); the round-level numpy ones and their
reference:

* ``scalar`` -- :class:`ScalarBackend`, defined here: the reference
  implementation, looping the replicas one by one through the ordinary
  :class:`~repro.rounds.engine.RoundEngine` /
  :class:`~repro.rounds.engine.OracleTransport` path.  Every other backend
  is specified by bit-identity against it.
* ``batch`` -- :class:`repro.batch.backends.BatchBackend`: runs all R
  replicas in lockstep with per-process estimates as ``(R, n)`` numpy
  arrays and heard-of sets as ``(R, ceil(n/64))`` uint64 mask arrays,
  falling back to the scalar loop per cell whenever vectorisation cannot
  engage (no batched kernel for the algorithm, unencodable values).
* ``super`` -- :class:`repro.batch.super.SuperBatchBackend`: packs *many*
  heterogeneous batches (different n, horizons, fault models, monitored or
  not) into one padded row space and steps the whole grid in a single run
  of the same lockstep loop, retiring rows as replicas decide; a cell the
  shared admission or the kernel constructor declines (unencodable values,
  no batched kernel) runs on the scalar reference instead, as on ``batch``.

The *contract* between backends is replica determinism: for every seed in
the batch, a backend must produce exactly the decisions, decision rounds,
predicate reports and round fingerprints the scalar reference produces for
the single run with that seed.  Fingerprints (:class:`ReplicaFingerprint`)
exist so tests can pin that contract round by round, not just on final
decisions; they are opt-in because computing them costs per-round Python
work that the batch hot path otherwise avoids.

This module deliberately depends on nothing above :mod:`repro.rounds`: the
algorithm, oracle and monitor are structural, and the registry resolves the
``batch`` backend by a lazy import so the import direction stays
``batch -> rounds``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from .bitmask import full_mask, iter_bits
from .engine import OracleTransport, RoundAlgorithm, RoundEngine
from .record import ProcessId, Round, RoundRecord

#: The backend name meaning "the fastest backend that keeps the contract":
#: resolves to ``compiled`` when numba is importable, else ``batch`` (each
#: tier degrades to the one below it per cell when it cannot engage, so the
#: outcomes are identical at every resolution).
AUTO_BACKEND = "auto"


@dataclass(frozen=True)
class ReplicaTask:
    """What one replica of a batch owns: its seed, environment and initial values.

    The algorithm is the cell's (:attr:`ReplicaBatch.algorithm`).  A seeded
    (stateful) *oracle* must be freshly constructed per replica; a
    deterministic one is built once per cell and held by every task, which
    is what lets the array tiers broadcast it
    (:func:`repro.adversaries.batch.vectorize_oracles`).  Building both from
    the seed is the caller's job, which keeps the backend layer free of
    scenario knowledge.
    """

    seed: int
    oracle: Any
    initial_values: Sequence[Any]


@dataclass(frozen=True)
class MonitorSpec:
    """A declarative description of the predicate monitors a batch wants.

    Data only (predicate names as accepted by
    :class:`~repro.predicates.batch.BatchMonitorBank`, the Pi0 scope as a
    bitmask, and the optional stop-after-held rule), so every backend
    builds its bank from it: the vectorised ones a ``BatchMonitorBank`` over
    all their replicas, the scalar reference loops the per-run observer
    :meth:`scalar_bank` returns, which runs the same array monitors at
    R = 1.  *completion_scope* narrows the observer's round-completion
    quorum to Pi0 -- step cells set it, because a crashed process stops
    reporting forever and rounds complete once the surviving scope did.
    """

    predicates: Tuple[str, ...]
    pi0_mask: Optional[int] = None
    stop_after_held: Optional[int] = None
    completion_scope: bool = False

    def scalar_bank(self, n: int) -> Any:
        """A fresh :class:`~repro.predicates.MonitorBank` for one scalar replica."""
        from ..predicates import MonitorBank  # lazy: rounds never imports upward

        return MonitorBank(
            n,
            self.predicates,
            pi0_mask=self.pi0_mask,
            stop_after_held=self.stop_after_held,
            completion_mask=self.pi0_mask if self.completion_scope else None,
        )


@dataclass
class ReplicaBatch:
    """R seeded replicas of one oracle-driven scenario, as one unit of work.

    *algorithm* is the cell's one (stateless) algorithm, shared by every
    replica; a task's oracle that knows its system size (``n``) must be
    sized for the batch, like the algorithm.  *scope_mask* is the set of
    processes whose decisions end a replica (``None`` means all of Pi);
    *run_full_horizon* keeps executing rounds after the scope decided
    (monitored runs measuring first-hold rounds).
    *monitor_spec* describes the predicate monitors every replica carries.
    """

    n: int
    algorithm: RoundAlgorithm
    tasks: List[ReplicaTask]
    max_rounds: int
    scope_mask: Optional[int] = None
    run_full_horizon: bool = False
    monitor_spec: Optional[MonitorSpec] = None
    fingerprints: bool = False

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"number of processes must be positive, got {self.n}")
        if self.max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if not self.tasks:
            raise ValueError("a replica batch needs at least one task")
        if self.algorithm.n != self.n:
            raise ValueError(
                f"algorithm is sized for n={self.algorithm.n}, batch has n={self.n}"
            )
        for task in self.tasks:
            oracle_n = getattr(task.oracle, "n", self.n)
            if oracle_n != self.n:
                raise ValueError(f"oracle is sized for n={oracle_n}, batch has n={self.n}")

    @property
    def replicas(self) -> int:
        return len(self.tasks)

    @property
    def effective_scope_mask(self) -> int:
        return full_mask(self.n) if self.scope_mask is None else self.scope_mask


@dataclass(frozen=True)
class ReplicaOutcome:
    """What one replica produced: the trace-free summary of its run."""

    seed: int
    decisions: Dict[ProcessId, Any]
    decision_rounds: Dict[ProcessId, Round]
    rounds_executed: int
    messages_sent: int
    messages_delivered: int
    stopped_early: bool = False
    predicate_reports: Optional[Dict[str, Dict[str, Any]]] = None
    fingerprint: Optional[str] = None

    def first_decision_round(self) -> Optional[Round]:
        return min(self.decision_rounds.values()) if self.decision_rounds else None

    def last_decision_round(self) -> Optional[Round]:
        return max(self.decision_rounds.values()) if self.decision_rounds else None


@dataclass(frozen=True)
class CellPlan:
    """One sweep cell prepared for execution, decoupled from *who* executes it.

    A scenario's batch *builder* returns the fully built
    :class:`ReplicaBatch` plus the ``finalize`` callable that flattens the
    backend's outcomes into the scenario's wire records.  The sweep's group
    runner runs ``finalize(get_backend(name).run(batch))``; the super-batch
    path collects many plans, hands all their batches to
    :meth:`repro.batch.super.SuperBatchBackend.run_batches` in one call,
    and finalizes each plan from the grid-wide result.
    """

    batch: ReplicaBatch
    finalize: Callable[[List[ReplicaOutcome]], Any]


@runtime_checkable
class ExecutionBackend(Protocol):
    """A strategy for executing a :class:`ReplicaBatch`.

    ``run`` returns one outcome per task, in task order.  Backends must be
    bit-identical to :class:`ScalarBackend` per seed: decisions, decision
    rounds, predicate reports and (when enabled) round fingerprints.
    """

    name: str

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]: ...


class ReplicaFingerprint:
    """A streaming digest of one replica's rounds, identical across backends.

    Per executed round the digest consumes the heard-of masks, the
    post-transition estimates (``repr`` of each state's ``x`` attribute --
    every shipped algorithm exposes one) and the decisions that fired; the
    final digest also covers the decision table and message accounting.  Any
    divergence between two backends therefore shows up as a fingerprint
    mismatch in the round where it happened.
    """

    __slots__ = ("_hash",)

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def observe_round(
        self,
        round: Round,
        masks: Sequence[int],
        estimates: Sequence[str],
        newly_decided: Sequence[Tuple[ProcessId, str]],
    ) -> None:
        payload = (round, tuple(masks), tuple(estimates), tuple(newly_decided))
        self._hash.update(repr(payload).encode("utf-8"))

    def finish(self, outcome_fields: Tuple[Any, ...]) -> str:
        self._hash.update(repr(outcome_fields).encode("utf-8"))
        return self._hash.hexdigest()


def finish_fingerprint(
    fingerprint: Optional[ReplicaFingerprint],
    decisions: Dict[ProcessId, Any],
    decision_rounds: Dict[ProcessId, Round],
    rounds_executed: int,
    messages_sent: int,
    messages_delivered: int,
) -> Optional[str]:
    """Close a fingerprint over the outcome summary (shared by all backends)."""
    if fingerprint is None:
        return None
    return fingerprint.finish(
        (
            tuple(sorted((p, repr(v)) for p, v in decisions.items())),
            tuple(sorted(decision_rounds.items())),
            rounds_executed,
            messages_sent,
            messages_delivered,
        )
    )


class _TallySink:
    """The minimal trace sink of the scalar reference loop.

    Buffers the records of the current round (for decisions, estimates and
    fingerprints) instead of accumulating a full trace: backends return
    trace-free outcomes.
    """

    __slots__ = ("messages_sent", "messages_delivered", "round_records")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.round_records: List[RoundRecord] = []

    def record_round_result(self, record: RoundRecord) -> None:
        self.round_records.append(record)

    def record_decision(
        self, process: ProcessId, value: Any, round: Round, time: float
    ) -> None:  # decisions are read off the buffered records
        pass


class ScalarBackend:
    """The reference backend: replicas loop one by one through the RoundEngine.

    The one scalar reference of the round-level scenarios: a single-seed run
    (:func:`repro.workloads.batched.run_seed`) and a ``--backend scalar``
    cell both execute their builder's plan here.  Per replica it runs rounds
    until every process in scope decided (or the horizon / an observer
    stop), with each replica's oracle and rng untouched by its siblings --
    the engine :class:`~repro.core.machine.HOMachine` drives too, with a
    tally sink instead of a full trace.
    """

    name = "scalar"

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        return [self._run_replica(batch, task) for task in batch.tasks]

    def _run_replica(self, batch: ReplicaBatch, task: ReplicaTask) -> ReplicaOutcome:
        n = batch.n
        algorithm = batch.algorithm
        scope = tuple(iter_bits(batch.effective_scope_mask))
        sink = _TallySink()
        monitor = batch.monitor_spec.scalar_bank(n) if batch.monitor_spec is not None else None
        observers = (monitor,) if monitor is not None else ()
        engine = RoundEngine(algorithm, OracleTransport(task.oracle, n), sink, observers)
        states: Dict[ProcessId, Any] = {
            p: algorithm.initial_state(p, task.initial_values[p]) for p in range(n)
        }
        fingerprint = ReplicaFingerprint() if batch.fingerprints else None
        decisions: Dict[ProcessId, Any] = {}
        decision_rounds: Dict[ProcessId, Round] = {}

        round = 0
        while round < batch.max_rounds:
            if engine.stop_requested:
                break
            if not batch.run_full_horizon and all(p in decisions for p in scope):
                break
            round += 1
            sink.round_records.clear()
            engine.execute_round(round, states)
            newly_decided: List[Tuple[ProcessId, str]] = []
            for record in sink.round_records:
                if record.decision is not None and record.process not in decisions:
                    decisions[record.process] = record.decision
                    decision_rounds[record.process] = round
                    newly_decided.append((record.process, repr(record.decision)))
            if fingerprint is not None:
                fingerprint.observe_round(
                    round,
                    [record.ho_mask for record in sink.round_records],
                    [repr(getattr(record.state_after, "x", None)) for record in sink.round_records],
                    newly_decided,
                )

        stopped_early = bool(getattr(monitor, "stop_requested", False))
        reports = monitor.reports_json() if monitor is not None else None
        return ReplicaOutcome(
            seed=task.seed,
            decisions=decisions,
            decision_rounds=decision_rounds,
            rounds_executed=round,
            messages_sent=sink.messages_sent,
            messages_delivered=sink.messages_delivered,
            stopped_early=stopped_early,
            predicate_reports=reports,
            fingerprint=finish_fingerprint(
                fingerprint,
                decisions,
                decision_rounds,
                round,
                sink.messages_sent,
                sink.messages_delivered,
            ),
        )


# --------------------------------------------------------------------------- #
# the backend registry
# --------------------------------------------------------------------------- #

_BACKENDS: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register *backend* under its ``name`` (later registrations win)."""
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """The registered backend names plus the ``auto`` alias."""
    _ensure_populated()
    return sorted(_BACKENDS) + [AUTO_BACKEND]


def get_backend(name: str) -> ExecutionBackend:
    """Resolve a backend by name.

    ``auto`` means the fastest tier that can engage in this process: the
    ``compiled`` backend when numba is importable, else ``batch`` -- both
    degrade per cell down the tier ladder with identical outcomes.  The
    ``batch`` and ``compiled`` backends register themselves when their
    packages are imported; resolution triggers those imports lazily so
    that ``repro.rounds`` itself never depends upward.
    """
    _ensure_populated()
    if name == AUTO_BACKEND:
        from .._optional import have_numba

        key = "compiled" if have_numba() else "batch"
    else:
        key = name
    try:
        return _BACKENDS[key]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; known: {backend_names()}"
        ) from None


def _ensure_populated() -> None:
    if "batch" not in _BACKENDS:
        import repro.batch  # noqa: F401  (registers the batch backend)
    if "step-scalar" not in _BACKENDS:
        # Registers the step-path backends (and the translation kernel via
        # the package __init__); lazy for the same reason as repro.batch.
        import repro.predimpl.step_backend  # noqa: F401
    if "compiled" not in _BACKENDS:
        # Registers the compiled tier (which degrades to batch without
        # numba); lazy for the same reason as repro.batch.
        import repro.compiled  # noqa: F401


register_backend(ScalarBackend())


__all__ = [
    "AUTO_BACKEND",
    "CellPlan",
    "MonitorSpec",
    "ReplicaTask",
    "ReplicaBatch",
    "ReplicaOutcome",
    "ReplicaFingerprint",
    "finish_fingerprint",
    "ExecutionBackend",
    "ScalarBackend",
    "register_backend",
    "backend_names",
    "get_backend",
]
