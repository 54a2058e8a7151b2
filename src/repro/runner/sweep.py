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
  of :class:`RecordSink` consumers.  Every batched cell runs through one
  group runner: alone, or under ``backend="super"`` together with the
  cells that differ from it only in their base seed;
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
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    TextIO,
    Tuple,
    runtime_checkable,
)

from ..rounds.backend import CellPlan, ReplicaOutcome, get_backend
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


#: The wire record's fields, in the key order of every sink: a JSONL line, a
#: JSON-summary run entry and a CSV row.
WIRE_FIELDS = (
    "scenario", "fault_model", "seed", "n", "params",
    "solved", "safe", "terminated", "decided_processes", "scope_size",
    "first_decision_time", "last_decision_time", "messages_sent",
    "wall_seconds", "error", "predicates", "replicas",
)

#: The wire fields a reloaded line may lack; any other missing field marks
#: the line torn.
_OPTIONAL_FIELDS = ("params", "error", "predicates", "replicas")

#: The flat per-replica outcome keys batched cells carry: the wire fields
#: minus the cell-level ones.
REPLICA_OUTCOME_FIELDS = tuple(
    key for key in WIRE_FIELDS
    if key not in ("scenario", "fault_model", "n", "params", "wall_seconds", "replicas")
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
        payload = {key: getattr(self, key) for key in WIRE_FIELDS}
        payload["params"] = dict(self.params)
        payload["wall_seconds"] = round(self.wall_seconds, 6)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a wire record from one JSONL line / JSON-summary entry.

        A missing required field raises ``KeyError``.
        """
        fields = {
            key: payload.get(key) if key in _OPTIONAL_FIELDS else payload[key]
            for key in WIRE_FIELDS
        }
        fields["params"] = tuple(sorted((fields["params"] or {}).items()))
        return cls(**fields)

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

    A batched spec (``spec.replicas``) is a seed-sibling group of one:
    :func:`_run_group` executes all its R seeds as one unit of work.
    """
    if spec.replicas is not None:
        return _run_group([(0, spec)])[0]
    runner = REGISTRY.scenario(spec.scenario)
    started = time.perf_counter()
    try:
        result = runner(spec.fault_model, n=spec.n, seed=spec.seed, **spec.kwargs)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        result, outcome = None, _errored_outcome(spec.seed, _error_text(exc))
    else:
        extra = getattr(result, "extra", None)
        predicates = extra.get("predicate_reports") if isinstance(extra, Mapping) else None
        outcome = replica_outcome(spec.seed, result.verdict, result.metrics, predicates)
    return _spec_record(spec, time.perf_counter() - started, result=result, **outcome)


def replica_outcome(
    seed: int, verdict: Any, metrics: Any, predicates: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One run's wire outcome (:data:`REPLICA_OUTCOME_FIELDS`).

    Built from its consensus verdict and run metrics, for a plain run here
    and for every replica a ``CellPlan.finalize`` flattens.
    """
    return {
        "seed": seed,
        "solved": verdict.solved,
        "safe": verdict.safe,
        "terminated": verdict.termination,
        "decided_processes": metrics.decided_processes,
        "scope_size": metrics.scope_size,
        "first_decision_time": metrics.first_decision_time,
        "last_decision_time": metrics.last_decision_time,
        "messages_sent": metrics.messages_sent,
        "error": None,
        "predicates": predicates,
    }


def _errored_outcome(seed: int, error: str) -> Dict[str, Any]:
    """The wire outcome of a replica that produced no result: nothing decided or sent."""
    outcome: Dict[str, Any] = dict.fromkeys(REPLICA_OUTCOME_FIELDS)
    outcome.update(
        seed=seed, solved=False, safe=False, terminated=False,
        decided_processes=0, scope_size=0, messages_sent=0, error=error,
    )
    return outcome


def _spec_record(spec: RunSpec, wall: float, **fields: Any) -> RunRecord:
    """A wire record of *spec*'s cell: its identity, its wall time and *fields*."""
    return RunRecord(
        scenario=spec.scenario, fault_model=spec.fault_model, n=spec.n, params=spec.params,
        wall_seconds=wall, **fields,
    )


def _replica_outcome_from_record(record: RunRecord) -> Dict[str, Any]:
    """Project a plain single-run record onto the per-replica outcome shape."""
    return {key: getattr(record, key) for key in REPLICA_OUTCOME_FIELDS}


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


def _solve_tallies(
    entries: Sequence[Mapping[str, Any]],
) -> Tuple[List[Mapping[str, Any]], Dict[str, Any]]:
    """The non-errored *entries*, and the error and solve tallies (rates over those)."""
    ok = [entry for entry in entries if not entry.get("error")]
    solved = sum(1 for entry in ok if entry["solved"])
    return ok, {
        "errors": len(entries) - len(ok),
        "solved": solved,
        "solve_rate": (solved / len(ok)) if ok else None,
        "all_safe": all(entry["safe"] for entry in ok) if ok else None,
    }


def _cell_aggregates(outcomes: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Per-cell (across-replica) aggregates of one batched cell."""
    ok, tallies = _solve_tallies(outcomes)
    latencies = [
        outcome["last_decision_time"]
        for outcome in ok
        if outcome["last_decision_time"] is not None
    ]
    aggregates: Dict[str, Any] = {
        "replicas": len(outcomes),
        **tallies,
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

    Backends that can decline their fast path record why they did
    (``last_fallback_reason``, per cell ``last_fallback_reasons`` on
    ``super``), e.g. ``"batch:scalar-fallback (no batched kernel for ...)"``.
    The compiled backend degrades to the numpy batch path; every other tier
    (batch, super, step-batch) degrades straight to its scalar reference.
    Diagnostic only -- outcomes are backend-independent by contract, so the
    label is deliberately outside the cell identity.
    """
    if reason is None:
        return name
    kind = "batch-fallback" if name == "compiled" else "scalar-fallback"
    return f"{name}:{kind} ({reason})"


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_seeds(spec: RunSpec) -> List[int]:
    """The consecutive replica seeds a batched cell covers."""
    return list(range(spec.seed, spec.seed + (spec.replicas or 1)))


def _finalize(
    plan: CellPlan, results: List[ReplicaOutcome]
) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """A plan's per-replica wire outcomes, or none and the error text."""
    try:
        return list(plan.finalize(results)), None
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        return [], _error_text(exc)


#: A grid cell tagged with its grid position.
Member = Tuple[int, RunSpec]


def _group_plans(
    members: List[Member],
) -> List[Tuple[List[Member], Optional[CellPlan], Optional[str]]]:
    """A seed-sibling group's ``(members, plan, build error)`` units.

    The members are batchable cells equal in everything but their base
    seed.  Every builder builds per seed, so one plan over all their seeds,
    in member order, holds exactly the members' tasks.  If that merged
    build raises, each member is rebuilt alone, so a seed-specific builder
    error stays on its own cell (its unit has no plan).
    """
    head = members[0][1]
    builder = REGISTRY.batch_builder(head.scenario)

    def build(unit: List[Member]) -> CellPlan:
        seeds = [seed for _, spec in unit for seed in _cell_seeds(spec)]
        return builder(head.fault_model, n=head.n, seeds=seeds, **head.kwargs)

    if len(members) > 1:
        try:
            return [(members, build(members), None)]
        except Exception:  # noqa: BLE001 - isolated below, member by member
            pass
    units = []
    for member in members:
        try:
            units.append(([member], build([member]), None))
        except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the grid
            units.append(([member], None, _error_text(exc)))
    return units


def _member_records(
    ran: Iterable[Tuple[List[Member], List[Dict[str, Any]], str, Optional[str]]], wall: float
) -> Dict[int, RunRecord]:
    """Slice each ``(members, outcomes, label, error)`` unit into member records.

    The members' replica counts partition a unit's outcomes in member
    order; *wall* is each cell's even share of the group's wall clock
    (per-cell timing is meaningless inside one lockstep loop).
    """
    records: Dict[int, RunRecord] = {}
    for members, outcomes, label, error in ran:
        start = 0
        for index, spec in members:
            count = spec.replicas or 1
            records[index] = _cell_record(spec, outcomes[start:start + count], label, wall, error)
            start += count
    return records


def _run_group(members: List[Member]) -> Dict[int, RunRecord]:
    """Execute a seed-sibling group of batched cells: one record per member.

    Each plan of the group (:func:`_group_plans`) goes, in one ``run``, to
    the execution backend its scenario resolves the requested choice to
    (step-path scenarios alias the generic choices onto ``step-batch``, and
    ``scalar`` onto ``step-scalar``) -- ``scalar`` included, so the
    reference every backend is pinned against runs whole plans too.  Only a
    scenario without a builder is R scalar :func:`execute_run` calls per
    cell (``scalar-loop``).
    """
    started = time.perf_counter()
    head = members[0][1]
    ran = []
    if REGISTRY.batch_builder(head.scenario) is None:
        for index, spec in members:
            singles = [replace(spec, seed=seed, replicas=None) for seed in _cell_seeds(spec)]
            outcomes = [_replica_outcome_from_record(execute_run(one)) for one in singles]
            ran.append(([(index, spec)], outcomes, "scalar-loop", None))
    else:
        name = REGISTRY.resolve_backend(head.scenario, head.backend)
        for unit, plan, error in _group_plans(members):
            # Until a run completes, the label stays the requested name.
            outcomes, label = [], name
            if plan is not None:
                try:
                    backend = get_backend(name)
                    results = backend.run(plan.batch)
                except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
                    error = _error_text(exc)
                else:
                    outcomes, error = _finalize(plan, results)
                    reason = getattr(backend, "last_fallback_reason", None)
                    label = _fallback_label(backend.name, reason)
            ran.append((unit, outcomes, label, error))
    return _member_records(ran, (time.perf_counter() - started) / len(members))


def _cell_record(
    spec: RunSpec,
    outcomes: List[Dict[str, Any]],
    used_backend: str,
    wall: float,
    error: Optional[str],
) -> RunRecord:
    """Assemble a batched cell's wire record from its per-replica outcomes."""
    ok = [outcome for outcome in outcomes if not outcome.get("error")]
    replicas_payload = {
        "count": spec.replicas or 1,
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
    return _spec_record(
        spec,
        wall,
        seed=spec.seed,
        solved=bool(ok) and all(o["solved"] for o in ok),
        safe=bool(ok) and all(o["safe"] for o in ok),
        terminated=bool(ok) and all(o["terminated"] for o in ok),
        decided_processes=sum(o["decided_processes"] for o in ok),
        scope_size=max((o["scope_size"] for o in ok), default=0),
        first_decision_time=min(first_times) if first_times else None,
        last_decision_time=max(last_times) if last_times else None,
        messages_sent=sum(o["messages_sent"] for o in ok),
        error=error,
        replicas=replicas_payload,
    )


#: Pool workers start from a fork server, never by forking the sweeping
#: process itself: after one float32 ``np.matmul`` (every OneThirdRule step)
#: that process owns a BLAS thread pool, and a child forked from it can hang.
_POOL_CONTEXT = multiprocessing.get_context("forkserver")


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


def _open_fresh(path: str, newline: Optional[str] = None) -> TextIO:
    """Open *path* for writing as a new file, creating parent directories.

    A regular file this process may write, at *path* or at its symlink
    target, is unlinked first rather than truncated, so a hard-linked alias
    of it keeps its content.  On ext4 a re-run within ~30 s of the last one
    also skips the 40-90 ms an ``O_TRUNC`` spends freeing the old file's
    blocks (docs/architecture.md, "Streamed sinks").  Anything else --
    ``/dev/null``, a FIFO, a directory, a write-protected file -- is never
    unlinked, and an unlink the filesystem refuses falls back to the
    truncating open.
    """
    _ensure_parent(path)
    target = os.path.realpath(path)
    if os.path.isfile(target) and os.access(target, os.W_OK):
        try:
            os.unlink(target)
        except OSError:
            pass
    return open(path, "w", encoding="utf-8", newline=newline)


class JsonlSink:
    """One JSON line per finished run, flushed immediately.

    The flush-per-record discipline is what makes sweeps resumable: when a
    10k-cell grid is killed, every completed cell is already on disk, and
    ``run_sweep(..., resume_from=path)`` picks up where it died.  Pass
    ``append=True`` when resuming into the same file; otherwise the sink
    writes a fresh file (see :func:`_open_fresh`).
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        if append:
            _ensure_parent(path)
            self._handle = open(path, "a", encoding="utf-8")
        else:
            self._handle = _open_fresh(path)
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
        error = record.error or "batched cell produced no outcomes"
        count = int(record.replicas.get("count") or 1)
        return [_errored_outcome(record.seed + i, error) for i in range(count)]
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


#: What the JSON encoders write as an array or object.
_NESTED = (list, tuple, dict)
#: The exact types of a flat container's items.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _encode_items(items: Any, depth: int) -> str:
    """What the C encoder writes between the brackets of *items*, a dict or
    list of scalars, with a comma, a newline and the indent of *depth*
    between two items."""
    separators = (",\n" + "  " * depth, ": ")
    return json.JSONEncoder(separators=separators, default=str).encode(items)[1:-1]


def _flat_json(value: Any, depth: int) -> Optional[str]:
    """The indented text of *value* at *depth*, or None if an item of it may nest.

    A scalar, an empty container and a container whose items are all of
    exactly the :data:`_SCALARS` types are one call of a C encoder.
    """
    if not isinstance(value, _NESTED):
        return json.dumps(value, default=str)
    is_dict = isinstance(value, dict)
    opener, closer = "{}" if is_dict else "[]"
    if not value:
        return opener + closer
    if not _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        return None
    outer = "\n" + "  " * depth
    return opener + outer + "  " + _encode_items(value, depth + 1) + outer + closer


def _json_chunks(value: Any, depth: int = 0) -> Iterator[str]:
    """``json.dumps(value, indent=2, default=str)`` for *value* at *depth*, in pieces.

    The stdlib encodes an indented document in pure Python, one call per
    token.  Here a flat container is one call of the unindented C encoder
    (:func:`_flat_json`), and so is every run of consecutive scalar items
    of any other container.  Such a container is one piece, except that it
    yields what it has before each item that is not flat and recurses into
    it, so a piece never spans two of those.  A dict with a non-str key on
    a container item is left whole to the stdlib, re-indented to *depth*.
    The pieces join to the stdlib's text, byte for byte.
    """
    text = _flat_json(value, depth)
    if text is not None:
        yield text
        return
    is_dict = isinstance(value, dict)
    outer = "\n" + "  " * depth
    items = value.items() if is_dict else value
    if is_dict and not all(
        isinstance(key, str) for key, item in items if isinstance(item, _NESTED)
    ):
        yield json.dumps(value, indent=2, default=str).replace("\n", outer)
        return
    inner = outer + "  "
    pieces = ["{" if is_dict else "["]
    separator = inner
    run: List[Any] = []
    for item in items:
        child = item[1] if is_dict else item
        if not isinstance(child, _NESTED):
            run.append(item)
            continue
        if run:
            pieces.append(separator + _encode_items(dict(run) if is_dict else run, depth + 1))
            separator = "," + inner
            run = []
        pieces.append(separator)
        if is_dict:
            pieces.append(json.encoder.encode_basestring_ascii(item[0]) + ": ")
        separator = "," + inner
        text = _flat_json(child, depth + 1)
        if text is None:
            yield "".join(pieces)
            pieces = []
            yield from _json_chunks(child, depth + 1)
        else:
            pieces.append(text)
    if run:
        pieces.append(separator + _encode_items(dict(run) if is_dict else run, depth + 1))
    pieces.append(outer + ("}" if is_dict else "]"))
    yield "".join(pieces)


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
            ok, tallies = _solve_tallies(entries)
            latencies = [
                entry["last_decision_time"]
                for entry in entries
                if entry["last_decision_time"] is not None
            ]
            name = f"{scenario}/{fault_model}" + (f"/n={n}" if multi_n else "")
            aggregates[name] = {
                "runs": len(group),
                "n": n,
                **tallies,
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
                rates = (_solve_tallies(_replica_entries(r))[1]["solve_rate"] for r in group)
                cell_rates = [rate for rate in rates if rate is not None]
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
        with _open_fresh(path) as handle:
            handle.writelines(_json_chunks(self.to_json()))
            handle.write("\n")

    #: column order of the CSV export (the per-run JSON fields).
    CSV_FIELDS = WIRE_FIELDS

    def write_csv(self, path: str) -> None:
        """Write one CSV row per run to *path* (creating parent directories).

        Columns match the per-run entries of the JSON summary, in grid
        order, so spreadsheet/pandas consumers get the same records CI gets
        (``params`` is JSON-encoded into its cell).
        """
        with _open_fresh(path, newline="") as handle:
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
    cells: Sequence[Member], finish: Callable[[int, RunRecord], None]
) -> None:
    """Run every cell with a registered builder in seed-sibling groups.

    A *seed-sibling group* is the cells equal in everything but their base
    seed (:func:`_group_plans`).  The plans of every group whose scenario
    runs on ``super`` go to the super backend's ``run_batches`` in a single
    call -- the whole grid becomes the schedulable unit -- and are sliced
    back into member records, handed to *finish* in grid order.  A group's
    fallback reason is each member's: every reason ``admit`` and
    ``from_cells`` record depends on the algorithm, the value type or the
    params, never on the seed.  If ``run_batches`` raises, and for a scenario that aliases
    ``super`` onto its own backend (a step cell's ``StepEnvironment`` is no
    heard-of oracle to vectorise), :func:`_run_group` runs group by group.
    Cells without a builder are left to the per-cell path.
    """

    def finish_all(records: Dict[int, RunRecord]) -> None:
        for index in sorted(records):
            finish(index, records[index])

    groups: Dict[str, List[Member]] = {}
    for index, spec in cells:
        if REGISTRY.batch_builder(spec.scenario) is not None:
            group = spec_key(spec.scenario, spec.fault_model, spec.n, 0, spec.params, spec.replicas)
            groups.setdefault(group, []).append((index, spec))
    packed: List[List[Member]] = []
    for members in groups.values():
        if REGISTRY.resolve_backend(members[0][1].scenario, "super") == "super":
            packed.append(members)
        else:
            finish_all(_run_group(members))
    if not packed:
        return
    started = time.perf_counter()
    units = [unit for members in packed for unit in _group_plans(members)]
    built = [(members, plan) for members, plan, _ in units if plan is not None]
    ran = [(members, [], "super", error) for members, plan, error in units if plan is None]
    backend = get_backend("super")
    try:
        results = backend.run_batches([plan.batch for _, plan in built])
    except Exception:  # noqa: BLE001 - degrade to one run per group
        for members in packed:
            finish_all(_run_group(members))
    else:
        reasons = backend.last_fallback_reasons
        for slot, (members, plan) in enumerate(built):
            outcomes, error = _finalize(plan, results[slot])
            ran.append((members, outcomes, _fallback_label("super", reasons.get(slot)), error))
        cells_run = sum(len(members) for members in packed)
        finish_all(_member_records(ran, (time.perf_counter() - started) / cells_run))


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
    out over a ``multiprocessing`` pool, one cell per job.  In the parallel
    path only the slim wire record is pickled back -- the full
    ``ScenarioResult`` stays in the worker (inline runs keep it, so
    in-process consumers read it).  Workers start from a fork server
    (:data:`_POOL_CONTEXT`): they import the caller's main module afresh,
    so a script that sweeps in parallel guards its entry point with
    ``if __name__ == "__main__"``, and a scenario registered at run time
    is unknown to them (the sweep raises its ``KeyError``).

    ``replicas=R`` turns every spec without its own ``replicas`` into a
    *batched cell* covering the R consecutive seeds ``spec.seed .. spec.seed
    + R - 1``, executed as one unit of work on the requested execution
    *backend* (:func:`_run_group`); its record carries the per-replica
    outcomes next to the cell aggregates.  Two cells of one (scenario, fault
    model, n, params) group whose seed ranges intersect raise ``ValueError``
    before anything executes: the shared seeds would be counted twice.
    ``backend="super"`` packs the whole grid into one cross-cell lockstep
    run (:func:`_execute_super_grid`); it is single-process by design, so
    combining it with ``workers > 1`` raises ``ValueError``.

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

    def finish(index: int, record: RunRecord) -> None:
        # Sinks first: a record is persisted before any consumer callback
        # sees it, so a crashing callback never loses completed work.
        for sink in sinks:
            sink.write(record)
        if on_record is not None:
            on_record(record)
        slots[index] = record

    try:
        super_cells = [
            (index, spec)
            for index, spec in pending
            if spec.replicas is not None and spec.backend == "super"
        ]
        if super_cells:
            # Cells without a CellPlan builder fall through to the per-cell
            # path below.
            _execute_super_grid(super_cells, finish)
            pending = [(index, spec) for index, spec in pending if slots[index] is None]
            worker_count = _resolve_workers(workers, len(pending))
        if worker_count == 1:
            for index, spec in pending:
                finish(index, execute_run(spec))
        else:
            # Index by grid position, not by spec fields: the position is
            # unambiguous even for specs differing only in extra params.
            with _POOL_CONTEXT.Pool(processes=worker_count) as pool:
                for index, record in pool.imap_unordered(
                    _execute_indexed, pending, chunksize=1
                ):
                    finish(index, record)
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
    "WIRE_FIELDS",
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
    "replica_outcome",
]
