"""The multi-run experiment harness: (scenario × fault-model × n × seed) sweeps.

One simulation run is cheap; the interesting questions -- solve rates under
a fault model, latency distributions across seeds, bound tightness across
system sizes -- need grids of runs.  This module executes such grids, in
parallel worker processes when asked to, and aggregates the streamed-back
per-run metrics deterministically:

* :func:`build_grid` expands (scenarios × fault-models × sizes × param-sets
  × seeds) into :class:`RunSpec` entries;
* :func:`run_sweep` executes the specs (inline, or in a ``multiprocessing``
  pool), streaming one :class:`RunRecord` per finished run into any number
  of :class:`RecordSink` consumers;
* :class:`JsonlSink` persists one JSON line per finished run, flushed as
  records stream back, and ``run_sweep(..., resume_from=path)`` reloads
  such a file to skip the cells a killed grid already completed;
* :class:`SweepResult` holds the records in grid order and computes
  seed-stable aggregates plus a machine-readable JSON summary
  (``schema: repro-sweep/4``) for benchmark trajectories in CI.

Wire discipline: parallel workers return a slim, picklable
:class:`RunRecord` -- the full ``ScenarioResult`` stays in the worker.
Inline execution (``workers <= 1``) keeps the in-process result attached,
so consumers such as :func:`repro.workloads.compare_stacks` read it.

Determinism: every run is fully determined by its spec (the simulators are
deterministic per seed), records are re-ordered into grid order regardless
of worker completion order, and aggregates never include wall-clock times
-- so the same grid always yields byte-identical aggregates, whether it ran
serially, in parallel, or resumed from a partial JSONL file.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..rounds.backend import CellPlan, ExecutionBackend, ReplicaOutcome, get_backend
from .registry import REGISTRY

#: JSON schema tag of the sweep summary (v4: batched cells -- a per-run
#: ``replicas`` payload carrying per-replica outcomes and per-cell
#: aggregates, plus per-group across-replica dispersion; v3 added per-run
#: ``predicates`` and per-group predicate aggregates; v2 per-run ``params``,
#: per-group ``n``, error-free ``solve_rate`` denominators and ``resumed``).
#: v2/v3 JSONL files resume into v4 sweeps unchanged -- the cell identity of
#: non-batched cells is byte-identical, and batched cells extend it with the
#: replica count only.
SCHEMA = "repro-sweep/4"


def spec_key(
    scenario: str,
    fault_model: str,
    n: int,
    seed: int,
    params: Iterable[Tuple[str, Any]] = (),
    replicas: Optional[int] = None,
) -> str:
    """The canonical identity of one grid cell, as a compact JSON string.

    Includes the extra params (cells differing only in params are distinct
    cells) and is stable across a JSON round trip, so records reloaded from
    a JSONL file match the specs that produced them.  Batched cells append
    their replica count (a batched cell and a single run at the same base
    seed are different experiments); the execution backend is deliberately
    *not* part of the identity -- backends are bit-identical, so a resumed
    grid may finish on a different backend than it started on.
    """
    identity: List[Any] = [scenario, fault_model, int(n), int(seed), dict(params)]
    if replicas is not None:
        identity.append(int(replicas))
    return json.dumps(
        identity,
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )


@dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep grid: a scenario under one fault model and seed.

    With *replicas* set, the cell covers the R consecutive seeds
    ``seed .. seed + replicas - 1`` and is executed as one replica batch
    (the scenario's registered builder's plan on the requested execution
    *backend*, or R scalar runs when none is registered); the record then
    carries per-replica outcomes.
    """

    scenario: str
    fault_model: str
    seed: int
    n: int = 4
    #: extra keyword arguments for the scenario runner, stored as a sorted
    #: tuple of pairs so the spec stays hashable and picklable.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: number of replicas of a batched cell; None = a plain single run.
    replicas: Optional[int] = None
    #: execution backend of a batched cell: "auto", "batch", "compiled",
    #: "scalar" or "super" (:data:`BACKEND_CHOICES`).
    backend: str = "auto"

    @classmethod
    def make(
        cls, scenario: str, fault_model: str, seed: int, n: int = 4, **params: Any
    ) -> "RunSpec":
        return cls(
            scenario=scenario,
            fault_model=fault_model,
            seed=seed,
            n=n,
            params=tuple(sorted(params.items())),
        )

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def key(self) -> Tuple[str, str, int, int]:
        return (self.scenario, self.fault_model, self.n, self.seed)

    @property
    def cell_key(self) -> str:
        """The resume-matching identity of this cell (includes params)."""
        return spec_key(
            self.scenario, self.fault_model, self.n, self.seed, self.params,
            replicas=self.replicas,
        )


@dataclass(frozen=True)
class RunRecord:
    """The streamed-back outcome of one run (metrics flattened for JSON).

    This is the *wire record*: everything in it is picklable and
    JSON-serialisable, so it crosses process boundaries and restarts
    cheaply.  The full in-process ``ScenarioResult`` rides along only in
    :attr:`result`, which never crosses the worker pool by default.
    """

    scenario: str
    fault_model: str
    seed: int
    n: int
    solved: bool
    safe: bool
    terminated: bool
    decided_processes: int
    scope_size: int
    first_decision_time: Optional[float]
    last_decision_time: Optional[float]
    messages_sent: int
    wall_seconds: float
    params: Tuple[Tuple[str, Any], ...] = ()
    error: Optional[str] = None
    #: streaming predicate-monitor reports of a monitored run: one JSON
    #: report dict per predicate name (see
    #: :class:`repro.predicates.reports.PredicateReport`), None when the
    #: run monitored nothing.  Reports are tiny, so -- unlike traces --
    #: they ride the wire record across worker pools and into JSONL/CSV.
    predicates: Optional[Dict[str, Any]] = None
    #: batched-cell payload: ``{"count", "backend", "outcomes", "aggregates"}``
    #: with one flat outcome dict per replica (seeds ``seed .. seed+count-1``)
    #: and the per-cell aggregates; None for plain single-run cells.  The
    #: record's top-level fields then summarise the whole cell (solved/safe/
    #: terminated are conjunctions over non-errored replicas, counters are
    #: sums, decision times the min/max across replicas).
    replicas: Optional[Dict[str, Any]] = None
    #: the full ScenarioResult (verdict + metrics); carried for in-process
    #: consumers such as ``compare_stacks``, excluded from the JSON summary
    #: and stripped before a parallel worker returns.
    result: Any = field(default=None, compare=False, repr=False)

    @property
    def cell_key(self) -> str:
        """The resume-matching identity of the cell this record came from."""
        count = self.replicas.get("count") if self.replicas else None
        return spec_key(
            self.scenario, self.fault_model, self.n, self.seed, self.params,
            replicas=count,
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """The per-run entry of the JSON summary (wall time included, result not)."""
        return {
            "scenario": self.scenario,
            "fault_model": self.fault_model,
            "seed": self.seed,
            "n": self.n,
            "params": dict(self.params),
            "solved": self.solved,
            "safe": self.safe,
            "terminated": self.terminated,
            "decided_processes": self.decided_processes,
            "scope_size": self.scope_size,
            "first_decision_time": self.first_decision_time,
            "last_decision_time": self.last_decision_time,
            "messages_sent": self.messages_sent,
            "wall_seconds": round(self.wall_seconds, 6),
            "error": self.error,
            "predicates": self.predicates,
            "replicas": self.replicas,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a wire record from one JSONL line / JSON-summary entry."""
        params = payload.get("params") or {}
        return cls(
            scenario=payload["scenario"],
            fault_model=payload["fault_model"],
            seed=payload["seed"],
            n=payload["n"],
            solved=payload["solved"],
            safe=payload["safe"],
            terminated=payload["terminated"],
            decided_processes=payload["decided_processes"],
            scope_size=payload["scope_size"],
            first_decision_time=payload["first_decision_time"],
            last_decision_time=payload["last_decision_time"],
            messages_sent=payload["messages_sent"],
            wall_seconds=payload["wall_seconds"],
            params=tuple(sorted(params.items())),
            error=payload.get("error"),
            predicates=payload.get("predicates"),
            replicas=payload.get("replicas"),
        )

    def row(self) -> str:
        """A fixed-width text row for reports."""
        latency = (
            "   -  "
            if self.last_decision_time is None
            else f"{self.last_decision_time:6.1f}"
        )
        status = f"ERROR: {self.error}" if self.error else (
            f"safe={'yes' if self.safe else 'NO '} "
            f"terminated={'yes' if self.terminated else 'no '} "
            f"latency={latency} messages={self.messages_sent}"
        )
        if self.replicas and not self.error:
            aggregates = self.replicas.get("aggregates") or {}
            rate = aggregates.get("solve_rate")
            status += (
                f" replicas={self.replicas.get('count')}"
                f" solve_rate={'-' if rate is None else format(rate, '.2f')}"
            )
        return (
            f"{self.scenario:<16} {self.fault_model:<15} n={self.n:<3} "
            f"seed={self.seed:<3} {status}"
        )


def execute_run(spec: RunSpec) -> RunRecord:
    """Run one spec and flatten its outcome (top-level: picklable for workers).

    Batched specs (``spec.replicas``) execute the whole cell -- all R seeds
    -- in one call, from the scenario's builder when one is registered,
    else as R scalar runs.
    """
    if spec.replicas is not None:
        return _execute_batch_cell(spec)
    runner = REGISTRY.scenario(spec.scenario)
    started = time.perf_counter()
    try:
        result = runner(spec.fault_model, n=spec.n, seed=spec.seed, **spec.kwargs)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        return RunRecord(
            scenario=spec.scenario,
            fault_model=spec.fault_model,
            seed=spec.seed,
            n=spec.n,
            solved=False,
            safe=False,
            terminated=False,
            decided_processes=0,
            scope_size=0,
            first_decision_time=None,
            last_decision_time=None,
            messages_sent=0,
            wall_seconds=time.perf_counter() - started,
            params=spec.params,
            error=_error_text(exc),
        )
    wall = time.perf_counter() - started
    metrics = result.metrics
    extra = getattr(result, "extra", None)
    predicates = extra.get("predicate_reports") if isinstance(extra, Mapping) else None
    return RunRecord(
        scenario=spec.scenario,
        fault_model=spec.fault_model,
        seed=spec.seed,
        n=spec.n,
        solved=result.solved,
        safe=result.safe,
        terminated=result.verdict.termination,
        decided_processes=metrics.decided_processes,
        scope_size=metrics.scope_size,
        first_decision_time=metrics.first_decision_time,
        last_decision_time=metrics.last_decision_time,
        messages_sent=metrics.messages_sent,
        wall_seconds=wall,
        params=spec.params,
        predicates=predicates,
        result=result,
    )


#: The flat per-replica outcome keys batched cells carry (a projection of
#: the plain wire-record fields, minus the cell-level ones).
REPLICA_OUTCOME_FIELDS = (
    "seed",
    "solved",
    "safe",
    "terminated",
    "decided_processes",
    "scope_size",
    "first_decision_time",
    "last_decision_time",
    "messages_sent",
    "error",
    "predicates",
)


def _replica_outcome_from_record(record: RunRecord) -> Dict[str, Any]:
    """Project a plain single-run record onto the per-replica outcome shape."""
    payload = record.to_json_dict()
    return {key: payload[key] for key in REPLICA_OUTCOME_FIELDS}


def _mean_std_min_max(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Dispersion summary of a sample (population std; None-safe on empty)."""
    if not values:
        return {"mean": None, "std": None, "min": None, "max": None}
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return {
        "mean": mean,
        "std": variance ** 0.5,
        "min": min(values),
        "max": max(values),
    }


def _cell_aggregates(outcomes: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Per-cell (across-replica) aggregates of one batched cell."""
    ok = [outcome for outcome in outcomes if not outcome.get("error")]
    solved = sum(1 for outcome in ok if outcome["solved"])
    latencies = [
        outcome["last_decision_time"]
        for outcome in ok
        if outcome["last_decision_time"] is not None
    ]
    aggregates: Dict[str, Any] = {
        "replicas": len(outcomes),
        "errors": len(outcomes) - len(ok),
        "solved": solved,
        "solve_rate": (solved / len(ok)) if ok else None,
        "all_safe": all(outcome["safe"] for outcome in ok) if ok else None,
        "last_decision_time": _mean_std_min_max(latencies),
    }
    first_holds: Dict[str, List[int]] = {}
    for outcome in ok:
        for name, report in (outcome.get("predicates") or {}).items():
            value = report.get("first_hold_round")
            if value is not None:
                first_holds.setdefault(name, []).append(value)
    if first_holds:
        aggregates["first_hold_round"] = {
            name: _mean_std_min_max(values) for name, values in sorted(first_holds.items())
        }
    return aggregates


def _fallback_label(name: str, reason: Optional[str]) -> str:
    """A record's backend label: *name*, or which hop it took and why.

    The compiled backend degrades to the numpy batch path; every other
    tier (batch, super, step-batch) degrades straight to its scalar
    reference.
    """
    if reason is None:
        return name
    kind = "batch-fallback" if name == "compiled" else "scalar-fallback"
    return f"{name}:{kind} ({reason})"


def _effective_backend(backend: ExecutionBackend) -> str:
    """What actually executed a batched cell, for the record's diagnostics.

    Backends that can decline their fast path record per ``run`` why they
    did (``last_fallback_reason``); reading it right after the run turns the
    backend's name into the effective one, e.g. ``"batch"`` or
    ``"batch:scalar-fallback (no batched kernel for ...)"``.  Diagnostic only --
    outcomes are backend-independent by contract, so the field is
    deliberately outside the cell identity.
    """
    return _fallback_label(backend.name, getattr(backend, "last_fallback_reason", None))


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_seeds(spec: RunSpec) -> List[int]:
    """The consecutive replica seeds a batched cell covers."""
    return list(range(spec.seed, spec.seed + (spec.replicas or 1)))


def _build_plan(builder: Callable[..., CellPlan], spec: RunSpec) -> CellPlan:
    """Build a batchable cell's :class:`~repro.rounds.backend.CellPlan` (may raise)."""
    return builder(spec.fault_model, n=spec.n, seeds=_cell_seeds(spec), **spec.kwargs)


def _finalize(
    plan: CellPlan, results: List[ReplicaOutcome]
) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """A plan's per-replica wire outcomes, or none and the error text."""
    try:
        return list(plan.finalize(results)), None
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        return [], _error_text(exc)


def _execute_batch_cell(spec: RunSpec) -> RunRecord:
    """Execute one batched cell: R replica seeds as one unit of work.

    A batchable scenario's cell is built once by its registered builder and
    handed to the execution backend the scenario resolves ``spec.backend``
    to (step-path scenarios alias the generic choices onto ``step-batch``,
    and ``scalar`` onto ``step-scalar``) -- ``scalar`` included, so the
    reference every backend is pinned against runs the whole plan in one
    call too.  Only a scenario without a builder is R scalar ``execute_run``
    calls (``scalar-loop``).  Either way the cell yields a single wire record
    whose ``replicas`` payload carries the per-replica outcomes and the
    per-cell aggregates.
    """
    started = time.perf_counter()
    builder = REGISTRY.batch_builder(spec.scenario)
    if builder is None:
        outcomes = [
            _replica_outcome_from_record(execute_run(replace(spec, seed=seed, replicas=None)))
            for seed in _cell_seeds(spec)
        ]
        return _cell_record(spec, outcomes, "scalar-loop", time.perf_counter() - started, None)
    resolved_backend = REGISTRY.resolve_backend(spec.scenario, spec.backend)
    try:
        plan = _build_plan(builder, spec)
        backend = get_backend(resolved_backend)
        results = backend.run(plan.batch)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        # Nothing ran to completion, so the label stays the requested name.
        return _cell_record(
            spec, [], resolved_backend, time.perf_counter() - started, _error_text(exc)
        )
    outcomes, error = _finalize(plan, results)
    return _cell_record(
        spec, outcomes, _effective_backend(backend), time.perf_counter() - started, error
    )


def _cell_record(
    spec: RunSpec,
    outcomes: List[Dict[str, Any]],
    used_backend: str,
    wall: float,
    error: Optional[str],
) -> RunRecord:
    """Assemble a batched cell's wire record from its per-replica outcomes."""
    count = spec.replicas or 1
    ok = [outcome for outcome in outcomes if not outcome.get("error")]
    replicas_payload = {
        "count": count,
        "backend": used_backend,
        "outcomes": outcomes,
        "aggregates": _cell_aggregates(outcomes) if outcomes else {},
    }
    if error is None and outcomes and not ok:
        # Every replica errored: surface it at cell level so a resumed grid
        # retries the whole cell (partial replica errors stay cell-internal).
        error = "all replicas errored: " + str(outcomes[0].get("error"))
    first_times = [o["first_decision_time"] for o in ok if o["first_decision_time"] is not None]
    last_times = [o["last_decision_time"] for o in ok if o["last_decision_time"] is not None]
    return RunRecord(
        scenario=spec.scenario,
        fault_model=spec.fault_model,
        seed=spec.seed,
        n=spec.n,
        solved=bool(ok) and all(o["solved"] for o in ok),
        safe=bool(ok) and all(o["safe"] for o in ok),
        terminated=bool(ok) and all(o["terminated"] for o in ok),
        decided_processes=sum(o["decided_processes"] for o in ok),
        scope_size=max((o["scope_size"] for o in ok), default=0),
        first_decision_time=min(first_times) if first_times else None,
        last_decision_time=max(last_times) if last_times else None,
        messages_sent=sum(o["messages_sent"] for o in ok),
        wall_seconds=wall,
        params=spec.params,
        error=error,
        replicas=replicas_payload,
    )


def _execute_indexed(job: Tuple[int, RunSpec]) -> Tuple[int, "RunRecord"]:
    """Run one grid cell, tagged with its grid position (picklable for workers).

    The in-process result is stripped *inside the worker*, so only the slim
    wire record is pickled back through the pool.
    """
    index, spec = job
    return index, replace(execute_run(spec), result=None)


# --------------------------------------------------------------------------- #
# record sinks: streamed persistence of finished runs
# --------------------------------------------------------------------------- #


@runtime_checkable
class RecordSink(Protocol):
    """Where :func:`run_sweep` streams finished runs, one record at a time.

    ``write`` is called in completion order as each record arrives (only
    for freshly executed cells -- cells reloaded via ``resume_from`` are
    already persisted); ``close`` is called exactly once when the sweep
    finishes, even on error.
    """

    def write(self, record: RunRecord) -> None: ...

    def close(self) -> None: ...


def _ensure_parent(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


class JsonlSink:
    """One JSON line per finished run, flushed immediately.

    The flush-per-record discipline is what makes sweeps resumable: when a
    10k-cell grid is killed, every completed cell is already on disk, and
    ``run_sweep(..., resume_from=path)`` picks up where it died.  Pass
    ``append=True`` when resuming into the same file.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        _ensure_parent(path)
        self.path = path
        self._handle = open(path, "a" if append else "w", encoding="utf-8")
        if append and self._handle.tell() > 0:
            # A killed writer can leave a torn final line without a newline;
            # appending straight after it would glue the next record onto the
            # torn fragment and lose both.  Start appends on a fresh line.
            with open(path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    self._handle.write("\n")
                    self._handle.flush()

    def write(self, record: RunRecord) -> None:
        # default=str matches spec_key/_csv_row: non-JSON-native params
        # (frozensets, tuples of tuples, ...) must not abort a running sweep.
        self._handle.write(
            json.dumps(record.to_json_dict(), separators=(",", ":"), default=str)
        )
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def _csv_row(record: RunRecord) -> Dict[str, Any]:
    """A CSV-safe projection of one record (params/predicates/replicas JSON-encoded)."""
    row = record.to_json_dict()
    row["params"] = json.dumps(row["params"], sort_keys=True, default=str)
    for key in ("predicates", "replicas"):
        row[key] = (
            "" if row[key] is None
            else json.dumps(row[key], sort_keys=True, default=str)
        )
    return row


def _require_replica_outcomes(record: RunRecord) -> None:
    """Raise unless a completed batched record carries every replica, well typed.

    A record that lost its ``outcomes`` would otherwise resume as *completed*
    and aggregate as ``count`` errored replicas, a mistyped one kill the report.
    """
    if record.error is not None or not record.replicas:
        return
    outcomes = record.replicas["outcomes"]
    if not isinstance(outcomes, list) or len(outcomes) != record.replicas["count"]:
        raise ValueError("outcomes do not cover the replica count")
    for outcome in outcomes:
        if not all(key in outcome for key in REPLICA_OUTCOME_FIELDS):
            raise ValueError("replica outcome lacks a wire field")
        if not all(
            isinstance(outcome[key], int)
            for key in ("messages_sent", "decided_processes", "scope_size")
        ):
            raise ValueError("replica outcome counter is not an integer")


def load_jsonl_records(path: str) -> List[RunRecord]:
    """Reload the wire records persisted by a :class:`JsonlSink`.

    Tolerates the torn final line a killed process can leave behind, blank
    lines, and lines that parse as JSON but lack a required wire field (a
    tear can land on a closing brace), carry an identity field of the
    wrong type, or are batched records without their well-typed replica
    outcomes: such cells simply re-execute.  Later
    lines win when a cell appears twice, so appended resume runs supersede
    nothing and plain re-runs supersede everything.
    """
    records: Dict[str, RunRecord] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a killed run
            if not isinstance(payload, dict):
                continue
            try:
                record = RunRecord.from_json_dict(payload)
                key = record.cell_key
                _require_replica_outcomes(record)
            except (KeyError, AttributeError, TypeError, ValueError):
                continue  # valid JSON, but not a whole, well-typed record
            records[key] = record
    return list(records.values())


def _replica_entries(record: RunRecord) -> List[Mapping[str, Any]]:
    """The per-replica outcome views of a record (a plain record is one replica).

    Group aggregates are computed at *replica* granularity so that batched
    and unbatched sweeps of the same seeds aggregate identically.  A batched
    cell that failed before producing outcomes (its builder or backend raised)
    counts as one errored entry per replica, so the error is as visible in
    the aggregates as R failed scalar runs would be.
    """
    if record.replicas:
        outcomes = list(record.replicas.get("outcomes") or ())
        if outcomes:
            return outcomes
        count = int(record.replicas.get("count") or 1)
        return [
            {
                "seed": record.seed + i,
                "solved": False,
                "safe": False,
                "terminated": False,
                "decided_processes": 0,
                "scope_size": 0,
                "first_decision_time": None,
                "last_decision_time": None,
                "messages_sent": 0,
                "error": record.error or "batched cell produced no outcomes",
                "predicates": None,
            }
            for i in range(count)
        ]
    return [_replica_outcome_from_record(record)]


def _aggregate_predicates(entries: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-predicate aggregates over the monitored replicas of one group.

    Only non-errored replicas carrying reports contribute; like every other
    aggregate, the numbers depend solely on deterministic run outcomes, so
    resumed grids reproduce them byte-identically.  Besides the means, the
    first-hold rounds carry their across-replica dispersion (std/min/max),
    so batched cells report spread, not just centre.
    """
    reported = [entry for entry in entries if entry.get("predicates")]
    if not reported:
        return {}
    summary: Dict[str, Dict[str, Any]] = {}
    names = sorted({name for entry in reported for name in entry["predicates"]})
    for name in names:
        reports = [
            entry["predicates"][name] for entry in reported if name in entry["predicates"]
        ]
        held = sum(1 for report in reports if report.get("holds"))
        first_holds = [
            report["first_hold_round"]
            for report in reports
            if report.get("first_hold_round") is not None
        ]
        satisfactions = [
            report["satisfaction"] for report in reports
            if report.get("satisfaction") is not None
        ]
        dispersion = _mean_std_min_max(first_holds)
        summary[name] = {
            "runs": len(reports),
            "held": held,
            "hold_rate": held / len(reports),
            "mean_first_hold_round": dispersion["mean"],
            "std_first_hold_round": dispersion["std"],
            "min_first_hold_round": dispersion["min"],
            "max_first_hold_round": dispersion["max"],
            "mean_satisfaction": (
                sum(satisfactions) / len(satisfactions) if satisfactions else None
            ),
            "max_longest_good_run": max(
                (report.get("longest_good_run", 0) for report in reports), default=0
            ),
        }
    return summary


@dataclass
class SweepResult:
    """All records of one sweep, in grid order, plus deterministic aggregates."""

    records: List[RunRecord]
    workers: int = 1
    wall_seconds: float = 0.0
    #: how many cells were reloaded from a ``resume_from`` file instead of
    #: being executed.
    resumed: int = 0

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def record_for(
        self, scenario: str, fault_model: str, seed: int, n: Optional[int] = None
    ) -> RunRecord:
        """The record of one grid cell (raises when absent or ambiguous).

        *n* may be omitted on single-size grids; on multi-size grids an
        ambiguous lookup raises instead of silently picking one.
        """
        matches = [
            record
            for record in self.records
            if (record.scenario, record.fault_model, record.seed)
            == (scenario, fault_model, seed)
            and (n is None or record.n == n)
        ]
        if not matches:
            raise KeyError(f"no record for {(scenario, fault_model, seed, n)}")
        if len(matches) > 1:
            sizes = sorted(record.n for record in matches)
            raise KeyError(
                f"{len(matches)} records match {(scenario, fault_model, seed)}; "
                f"pass n= to disambiguate (sizes: {sizes})"
            )
        return matches[0]

    def aggregate(self) -> Dict[str, Dict[str, Any]]:
        """Seed-stable aggregates per ``(scenario, fault_model, n)`` group.

        Wall-clock times are deliberately excluded: aggregates depend only on
        the (deterministic) simulation outcomes, so re-running the same grid
        -- serially, in parallel, or resumed from a partial JSONL -- yields
        identical aggregates.  Aggregation happens at *replica* granularity:
        a plain record is one replica, a batched cell contributes every
        replica outcome it carries, so batched and unbatched sweeps of the
        same seeds aggregate identically.  ``solve_rate`` is computed over
        non-errored replicas only (``None`` when every one errored): an
        infrastructure failure must not deflate the scientific solve rate.
        Groups containing batched cells additionally report the
        across-replica dispersion (std/min/max of per-cell solve rates and,
        via the predicate aggregates, of first-hold rounds).  Group keys
        gain an ``/n=<size>`` suffix exactly when the grid spans several
        system sizes.
        """
        groups: Dict[Tuple[str, str, int], List[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(
                (record.scenario, record.fault_model, record.n), []
            ).append(record)
        multi_n = len({n for (_, _, n) in groups}) > 1
        aggregates: Dict[str, Dict[str, Any]] = {}
        for (scenario, fault_model, n) in sorted(groups):
            group = sorted(
                groups[(scenario, fault_model, n)], key=lambda r: (r.seed, r.cell_key)
            )
            entries = [entry for record in group for entry in _replica_entries(record)]
            ok = [entry for entry in entries if not entry.get("error")]
            solved = sum(1 for entry in ok if entry["solved"])
            latencies = [
                entry["last_decision_time"]
                for entry in entries
                if entry["last_decision_time"] is not None
            ]
            name = f"{scenario}/{fault_model}" + (f"/n={n}" if multi_n else "")
            aggregates[name] = {
                "runs": len(group),
                "n": n,
                "errors": len(entries) - len(ok),
                "solved": solved,
                "solve_rate": (solved / len(ok)) if ok else None,
                "all_safe": all(entry["safe"] for entry in ok) if ok else None,
                "mean_last_decision_time": (
                    sum(latencies) / len(latencies) if latencies else None
                ),
                "max_last_decision_time": max(latencies) if latencies else None,
                "total_messages_sent": sum(entry["messages_sent"] for entry in entries),
                "seeds": [r.seed for r in group],
            }
            if any(record.replicas for record in group):
                # Per-cell solve rates (a plain record is a 0/1 cell), with
                # their spread: batched groups report dispersion, not just
                # the pooled mean.
                cell_rates = []
                for record in group:
                    cell_ok = [
                        entry for entry in _replica_entries(record)
                        if not entry.get("error")
                    ]
                    if cell_ok:
                        cell_rates.append(
                            sum(1 for entry in cell_ok if entry["solved"]) / len(cell_ok)
                        )
                aggregates[name]["replicas"] = len(entries)
                aggregates[name]["replica_dispersion"] = {
                    "cells": len(group),
                    "solve_rate": _mean_std_min_max(cell_rates),
                }
            predicate_summary = _aggregate_predicates(ok)
            if predicate_summary:
                aggregates[name]["predicates"] = predicate_summary
        return aggregates

    def to_json(self) -> Dict[str, Any]:
        """The machine-readable summary (``schema: repro-sweep/4``)."""
        return {
            "schema": SCHEMA,
            "grid_size": len(self.records),
            "workers": self.workers,
            "resumed": self.resumed,
            "wall_seconds": round(self.wall_seconds, 6),
            "runs": [record.to_json_dict() for record in self.records],
            "aggregates": self.aggregate(),
        }

    def write_json(self, path: str) -> None:
        """Write the JSON summary to *path* (creating parent directories)."""
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=False, default=str)
            handle.write("\n")

    #: column order of the CSV export (the per-run JSON fields).
    CSV_FIELDS = (
        "scenario",
        "fault_model",
        "seed",
        "n",
        "params",
        "solved",
        "safe",
        "terminated",
        "decided_processes",
        "scope_size",
        "first_decision_time",
        "last_decision_time",
        "messages_sent",
        "wall_seconds",
        "error",
        "predicates",
        "replicas",
    )

    def write_csv(self, path: str) -> None:
        """Write one CSV row per run to *path* (creating parent directories).

        Columns match the per-run entries of the JSON summary, in grid
        order, so spreadsheet/pandas consumers get the same records CI gets
        (``params`` is JSON-encoded into its cell).
        """
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.CSV_FIELDS)
            writer.writeheader()
            for record in self.records:
                writer.writerow(_csv_row(record))

    def report_lines(self) -> List[str]:
        """Fixed-width rows plus aggregate lines, for text reports."""
        lines = [record.row() for record in self.records]
        lines.append("-" * 78)
        for name, aggregate in self.aggregate().items():
            mean_latency = aggregate["mean_last_decision_time"]
            total = aggregate.get("replicas", aggregate["runs"])
            lines.append(
                f"{name:<32} runs={aggregate['runs']:<3} "
                f"solved={aggregate['solved']}/{total} "
                f"all_safe={aggregate['all_safe']!s:<5} "
                "mean_latency="
                f"{'-' if mean_latency is None else format(mean_latency, '.1f')}"
            )
        return lines


#: Keys no scenario parameter may take: each names a grid axis or an
#: execution choice, mapped to the flag / argument that owns it.
_RESERVED_PARAMS = {
    "scenario": "--scenarios",
    "scenarios": "--scenarios",
    "fault_model": "--fault-models",
    "fault_models": "--fault-models",
    "seed": "--seeds",
    "seeds": "--seeds",
    "n": "--n",
    "ns": "--ns",
    "param_sets": "build_grid(param_sets=...)",
    "replicas": "--replicas",
    "backend": "--backend",
}


def build_grid(
    scenarios: Sequence[str],
    fault_models: Sequence[str],
    seeds: Sequence[int],
    n: int = 4,
    ns: Optional[Sequence[int]] = None,
    param_sets: Optional[Sequence[Mapping[str, Any]]] = None,
    **params: Any,
) -> List[RunSpec]:
    """Expand a (scenario × fault-model × size × param-set × seed) grid.

    *ns* sweeps several system sizes (overriding the single *n*); each
    mapping in *param_sets* is overlaid on the shared ``**params`` and
    becomes one slice of the grid -- so bound-tightness experiments can
    cross sizes and knob settings in one grid.  With neither given, the
    classic single-axis (scenario × fault-model × seed) grid comes back
    unchanged.  A parameter key that names a grid axis (``n``, ``seed``,
    ``backend``, ...) is rejected: it would be swallowed by the axis,
    collide with it, or turn every cell into an errored run.
    """
    sizes = list(ns) if ns is not None else [n]
    if not sizes:
        raise ValueError("at least one system size is required")
    too_small = [size for size in sizes if size < 1]
    if too_small:
        raise ValueError(
            f"system sizes must be at least 1, got {', '.join(map(str, too_small))}"
        )
    overlays = [{}] if param_sets is None else [dict(entry) for entry in param_sets]
    if not overlays:
        raise ValueError("param_sets, when given, must not be empty")
    reserved = [
        key for mapping in (params, *overlays) for key in mapping if key in _RESERVED_PARAMS
    ]
    if reserved:
        raise ValueError(
            f"{reserved[0]!r} is a grid axis, not a scenario parameter; "
            f"set it with {_RESERVED_PARAMS[reserved[0]]}"
        )
    return [
        RunSpec.make(scenario, fault_model, seed, n=size, **{**params, **overlay})
        for scenario in scenarios
        for fault_model in fault_models
        for size in sizes
        for overlay in overlays
        for seed in seeds
    ]


def _resolve_workers(workers: Optional[int], jobs: int) -> int:
    # Never more workers than jobs, but deliberately no cpu_count() clamp:
    # a requested pool is honoured even on small machines (the workers are
    # processes; oversubscription just time-slices).
    if workers is None or workers <= 1:
        return 1
    return max(1, min(workers, jobs))


def _reject_overlapping_seeds(specs: Sequence[RunSpec], replicas: Optional[int] = None) -> None:
    """Raise ``ValueError`` when two cells of one group cover a seed twice.

    A cell covers ``[seed, seed + R)`` with R its own ``replicas``, else the
    sweep-wide *replicas*, else 1.  Two cells equal in (scenario, fault
    model, n, params) whose ranges intersect would count the shared seeds
    twice in every aggregate -- and, at equal base seeds, share one
    ``cell_key``, so a resume would match one JSONL line to both.
    """
    groups: Dict[str, List[Tuple[int, int, RunSpec]]] = {}
    for spec in specs:
        count = spec.replicas if spec.replicas is not None else (replicas or 1)
        group = spec_key(spec.scenario, spec.fault_model, spec.n, 0, spec.params)
        groups.setdefault(group, []).append((spec.seed, spec.seed + count, spec))
    for cells in groups.values():
        cells.sort(key=lambda cell: cell[0])
        # sorted by base seed: if any two ranges intersect, two neighbours do
        for (first, first_end, spec), (second, second_end, _) in zip(cells, cells[1:]):
            if second < first_end:
                last = min(first_end, second_end) - 1
                shared = f"seed {second}" if last == second else f"seeds {second}..{last}"
                raise ValueError(
                    f"{spec.scenario}/{spec.fault_model}/n={spec.n}: the cells at base "
                    f"seeds {first} and {second} both cover {shared} (a cell covers "
                    f"{first_end - first} consecutive seed(s) from its base seed); "
                    f"space base seeds at least {first_end - first} apart"
                )


#: Execution-backend names a sweep accepts for batched cells.
BACKEND_CHOICES = ("auto", "batch", "compiled", "scalar", "super")


def _execute_super_grid(
    cells: Sequence[Tuple[int, RunSpec]],
    emit: Callable[[RunRecord], None],
    slots: List[Optional[RunRecord]],
) -> List[Tuple[int, RunSpec]]:
    """Run every cell with a registered builder as ONE cross-cell unit.

    Builds a :class:`~repro.rounds.backend.CellPlan` per eligible cell,
    hands all their batches to the super backend's ``run_batches`` in a
    single call -- the whole grid becomes the schedulable unit -- and emits
    one wire record per cell.  The grid's wall clock is split evenly across
    its cells (per-cell timing is meaningless inside one lockstep loop).
    Returns the cells that must take the ordinary per-cell path: no
    builder, a scenario that aliases ``super`` onto its own backend (a step
    cell's ``StepEnvironment`` is no heard-of oracle to vectorise), or the
    cross-cell run failed.
    """
    leftover: List[Tuple[int, RunSpec]] = []
    plans: List[Tuple[int, RunSpec, CellPlan]] = []
    started = time.perf_counter()
    for index, spec in cells:
        builder = REGISTRY.batch_builder(spec.scenario)
        if builder is None or REGISTRY.resolve_backend(spec.scenario, "super") != "super":
            leftover.append((index, spec))
            continue
        try:
            plan = _build_plan(builder, spec)
        except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the grid
            record = _cell_record(spec, [], "super", 0.0, _error_text(exc))
            emit(record)
            slots[index] = record
            continue
        plans.append((index, spec, plan))
    if not plans:
        return leftover

    backend = get_backend("super")
    try:
        results = backend.run_batches([plan.batch for _, _, plan in plans])
    except Exception:  # noqa: BLE001 - degrade to the per-cell path wholesale
        return leftover + [(index, spec) for index, spec, _ in plans]
    per_cell_wall = (time.perf_counter() - started) / len(plans)
    reasons = backend.last_fallback_reasons
    for slot, (index, spec, plan) in enumerate(plans):
        used = _fallback_label("super", reasons.get(slot))
        outcomes, error = _finalize(plan, results[slot])
        record = _cell_record(spec, outcomes, used, per_cell_wall, error)
        emit(record)
        slots[index] = record
    return leftover


def run_sweep(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    sinks: Sequence[RecordSink] = (),
    resume_from: Optional[str] = None,
    replicas: Optional[int] = None,
    backend: str = "auto",
) -> SweepResult:
    """Execute *specs*, optionally in parallel worker processes.

    ``workers`` <= 1 (or ``None``) runs inline; larger values fan the grid
    out over a ``multiprocessing`` pool.  In the parallel path only the slim
    wire record is pickled back -- the full ``ScenarioResult`` stays in the
    worker (inline runs keep it, so in-process consumers read it).

    ``replicas=R`` turns every spec into a *batched cell* covering the R
    consecutive seeds ``spec.seed .. spec.seed + R - 1``, scheduled as one
    unit of work instead of R independent runs: scenarios with a registered
    :class:`~repro.rounds.backend.CellPlan` builder execute the whole cell
    on the requested execution *backend* (``auto``/``batch`` = the
    vectorised lockstep-replica engine with its automatic scalar fallback;
    ``scalar`` = the reference loop over the same plan), and
    every cell's record carries the per-replica outcomes next to the cell
    aggregates.  Specs that already carry ``replicas`` are left untouched.
    Two cells of one (scenario, fault model, n, params) group whose seed
    ranges intersect raise ``ValueError`` before anything executes: the
    shared seeds would be counted twice.

    ``backend="super"`` goes one step further: every such cell is packed,
    together with all the others, into ONE cross-cell lockstep engine run
    -- the whole grid becomes the schedulable unit, monitored and
    fingerprinted cells included.  Super-batching is single-process by
    design, so combining it with ``workers > 1`` raises ``ValueError``.
    Cells without a builder take the per-cell path; cells the shared
    admission or the kernel constructor declines (unencodable values, no
    batched kernel, ...) run on the scalar reference and are labelled
    ``super:scalar-fallback (reason)``.

    *on_record* is invoked and every sink in *sinks* written as each run's
    record streams back (in completion order); sinks are closed when the
    sweep finishes, even on error.  *resume_from* names a JSONL file
    written by a previous (possibly killed) run of the same grid: cells
    whose key appears there with a non-error outcome are reloaded instead
    of re-executed (errored cells are retried), and neither *on_record* nor
    the sinks see the reloaded records -- they are already persisted.

    The returned :class:`SweepResult` always holds the records in grid
    order, so results are independent of worker scheduling and of how often
    the grid was killed and resumed.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}")
    if backend == "super" and workers is not None and workers > 1:
        raise ValueError(
            "backend='super' is single-process by design: the whole grid is "
            "one schedulable unit, so workers must be 1 (or None)"
        )
    specs = list(specs)
    if replicas is not None:
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        specs = [
            spec if spec.replicas is not None
            else replace(spec, replicas=replicas, backend=backend)
            for spec in specs
        ]
    _reject_overlapping_seeds(specs)
    started = time.perf_counter()

    slots: List[Optional[RunRecord]] = [None] * len(specs)
    if resume_from and os.path.exists(resume_from):
        completed = {
            record.cell_key: record
            for record in load_jsonl_records(resume_from)
            if record.error is None
        }
        for index, spec in enumerate(specs):
            record = completed.get(spec.cell_key)
            if record is not None:
                slots[index] = record
    resumed = sum(1 for slot in slots if slot is not None)

    pending = [(index, spec) for index, spec in enumerate(specs) if slots[index] is None]
    worker_count = _resolve_workers(workers, len(pending))
    sinks = list(sinks)

    def emit(record: RunRecord) -> None:
        # Sinks first: a record is persisted before any consumer callback
        # sees it, so a crashing callback never loses completed work.
        for sink in sinks:
            sink.write(record)
        if on_record is not None:
            on_record(record)

    try:
        super_cells = [
            (index, spec)
            for index, spec in pending
            if spec.replicas is not None and spec.backend == "super"
        ]
        if super_cells:
            # Cells the grid path cannot take (no CellPlan builder, or the
            # cross-cell run itself failed) fall through to the normal
            # per-cell machinery below, where the super backend still
            # handles each batch individually.
            _execute_super_grid(super_cells, emit, slots)
            pending = [
                (index, spec) for index, spec in pending if slots[index] is None
            ]
            worker_count = _resolve_workers(workers, len(pending))
        if worker_count == 1:
            for index, spec in pending:
                record = execute_run(spec)
                emit(record)
                slots[index] = record
        else:
            # Index by grid position, not by spec fields: the position is
            # unambiguous even for specs differing only in extra params.
            with multiprocessing.Pool(processes=worker_count) as pool:
                for index, record in pool.imap_unordered(
                    _execute_indexed, pending, chunksize=1
                ):
                    emit(record)
                    slots[index] = record
    finally:
        for sink in sinks:
            sink.close()

    records = [record for record in slots if record is not None]
    assert len(records) == len(specs)
    return SweepResult(
        records=records,
        workers=worker_count,
        wall_seconds=time.perf_counter() - started,
        resumed=resumed,
    )


def run_one(
    scenario: str, fault_model: str, seed: int = 0, n: int = 4, **params: Any
) -> Any:
    """Run a single registered scenario and return its full ScenarioResult."""
    return REGISTRY.scenario(scenario)(fault_model, n=n, seed=seed, **params)


__all__ = [
    "SCHEMA",
    "BACKEND_CHOICES",
    "REPLICA_OUTCOME_FIELDS",
    "RunSpec",
    "RunRecord",
    "SweepResult",
    "RecordSink",
    "JsonlSink",
    "load_jsonl_records",
    "spec_key",
    "build_grid",
    "run_sweep",
    "run_one",
    "execute_run",
]
