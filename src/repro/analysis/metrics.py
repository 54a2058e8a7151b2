"""Run metrics and structural algorithm-complexity metrics.

Two kinds of measurements back the benchmark reports:

* *run metrics* -- decision latency, rounds needed, messages exchanged --
  extracted from recorded traces (HO machine, step simulator or DES);
* *structural metrics* -- a quantitative rendering of the paper's Section 2
  argument that the crash-recovery failure-detector algorithm (Algorithm 6)
  is far more complex than the crash-stop one (Algorithm 5), while the HO
  algorithm (Algorithm 1) is reused verbatim across fault models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Protocol, Sequence, Union

from ..core.types import DecisionRecord, ProcessId
from ..des.simulator import EventSimulator
from ..predicates.reports import PredicateReport


class UnifiedTrace(Protocol):
    """What the metrics layer needs from a trace, regardless of its producer.

    Both :class:`repro.core.types.RunTrace` (round-level) and
    :class:`repro.sysmodel.trace.SystemRunTrace` (step-level) implement this:
    the unified per-round record schema of :mod:`repro.rounds.record` gives
    every executed round a decision slot and a time, so one metrics
    extractor serves both layers.
    """

    @property
    def n(self) -> int: ...

    @property
    def messages_sent(self) -> int: ...

    def decision_records(self) -> Dict[ProcessId, DecisionRecord]: ...


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate metrics of one consensus run."""

    decided_processes: int
    scope_size: int
    unanimous: bool
    first_decision_time: Optional[float]
    last_decision_time: Optional[float]
    first_decision_round: Optional[int]
    last_decision_round: Optional[int]
    messages_sent: int

    @property
    def all_decided(self) -> bool:
        return self.decided_processes >= self.scope_size


def metrics_from_trace(
    trace: UnifiedTrace, scope: Optional[Iterable[ProcessId]] = None
) -> RunMetrics:
    """Metrics of any unified-schema trace.

    Time is whatever the producing layer recorded: the round number for
    round-level runs, normalised simulated time for step-level runs.
    """
    scope_set = set(range(trace.n)) if scope is None else set(scope)
    decisions = {
        p: record for p, record in trace.decision_records().items() if p in scope_set
    }
    times = [record.time for record in decisions.values()]
    rounds = [record.round for record in decisions.values()]
    return RunMetrics(
        decided_processes=len(decisions),
        scope_size=len(scope_set),
        unanimous=len({record.value for record in decisions.values()}) <= 1,
        first_decision_time=min(times) if times else None,
        last_decision_time=max(times) if times else None,
        first_decision_round=min(rounds) if rounds else None,
        last_decision_round=max(rounds) if rounds else None,
        messages_sent=trace.messages_sent,
    )


def metrics_from_des(
    simulator: EventSimulator, scope: Optional[Iterable[ProcessId]] = None
) -> RunMetrics:
    """Metrics of an event-driven (failure-detector baseline) run."""
    scope_set = set(range(simulator.n)) if scope is None else set(scope)
    decisions = {p: event for p, event in simulator.decisions.items() if p in scope_set}
    times = [event.time for event in decisions.values()]
    return RunMetrics(
        decided_processes=len(decisions),
        scope_size=len(scope_set),
        unanimous=len({event.value for event in decisions.values()}) <= 1,
        first_decision_time=min(times) if times else None,
        last_decision_time=max(times) if times else None,
        first_decision_round=None,
        last_decision_round=None,
        messages_sent=simulator.messages_sent,
    )


# --------------------------------------------------------------------------- #
# good-period statistics from streaming predicate reports
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GoodPeriodStats:
    """Good-period statistics of one predicate, computed from its monitor report.

    The paper's good periods are exactly the runs of rounds whose per-round
    predicate condition holds (a space-uniform streak for ``P_su``, a
    kernel streak for ``P_k``, ...).  Pre-monitoring, extracting these
    numbers meant re-scanning a recorded trace; now they are a direct
    re-reading of the compact :class:`~repro.predicates.reports.PredicateReport`
    a run already streamed out, so sweeps measure good periods without
    shipping traces.
    """

    predicate: str
    rounds_observed: int
    #: rounds whose per-round good condition held (good-period rounds).
    good_rounds: int
    #: first round of the earliest good period (None if none).
    first_good_round: Optional[int]
    #: length of the longest good period, in rounds.
    longest_good_period: int
    #: length of the longest bad period, in rounds.
    longest_bad_period: int
    #: first prefix of the run on which the predicate itself held.
    first_hold_round: Optional[int]
    #: whether the predicate held on the whole run.
    holds: bool

    @property
    def good_fraction(self) -> Optional[float]:
        """Fraction of rounds inside good periods (None when nothing observed)."""
        if self.rounds_observed == 0:
            return None
        return self.good_rounds / self.rounds_observed

    @classmethod
    def from_report(cls, report: Union[PredicateReport, Mapping[str, Any]]) -> "GoodPeriodStats":
        """Build from a :class:`PredicateReport` or its JSON dict form."""
        if isinstance(report, Mapping):
            report = PredicateReport.from_json_dict(report)
        return cls(
            predicate=report.name,
            rounds_observed=report.rounds_observed,
            good_rounds=report.good_rounds,
            first_good_round=report.first_good_round,
            longest_good_period=report.longest_good_run,
            longest_bad_period=report.longest_bad_run,
            first_hold_round=report.first_hold_round,
            holds=report.holds,
        )


def good_period_stats(
    reports: Union[
        Mapping[str, Union[PredicateReport, Mapping[str, Any]]],
        Sequence[Union[PredicateReport, Mapping[str, Any]]],
    ],
) -> Dict[str, GoodPeriodStats]:
    """Good-period statistics for a batch of predicate reports, keyed by predicate.

    Accepts the shapes the stack hands around: a ``MonitorBank.reports()``
    mapping, the JSON ``predicate_reports`` dict of a scenario result or
    sweep wire record, or a plain sequence of reports.
    """
    entries = reports.values() if isinstance(reports, Mapping) else reports
    stats = [GoodPeriodStats.from_report(entry) for entry in entries]
    return {stat.predicate: stat for stat in stats}


@dataclass(frozen=True)
class AlgorithmComplexity:
    """Structural complexity of a consensus algorithm (the Section 2 comparison)."""

    name: str
    fault_model: str
    message_kinds: int
    state_variables: int
    needs_stable_storage: bool
    needs_retransmission_task: bool
    needs_failure_detector: bool
    distinct_from_crash_stop_variant: bool


def algorithm_complexity_summary() -> Dict[str, AlgorithmComplexity]:
    """The structural comparison behind Section 2.1 and Appendix A.

    The counts are derived from the implementations in this repository
    (message dataclass kinds and state variables of each process class) and
    match the structure of the published pseudo-code.
    """
    return {
        "one-third-rule": AlgorithmComplexity(
            name="OneThirdRule (HO, Algorithm 1)",
            fault_model="any benign (crash-stop, crash-recovery, omissions, loss)",
            message_kinds=1,          # the estimate
            state_variables=2,        # x_p and the decision
            needs_stable_storage=False,   # handled below the predicate interface
            needs_retransmission_task=False,
            needs_failure_detector=False,
            distinct_from_crash_stop_variant=False,
        ),
        "chandra-toueg": AlgorithmComplexity(
            name="Chandra-Toueg ◇S (Algorithm 5)",
            fault_model="crash-stop only, reliable links",
            message_kinds=5,          # estimate, newestimate, ack, nack, decide
            state_variables=5,        # estimate, ts, r, state, phase bookkeeping
            needs_stable_storage=False,
            needs_retransmission_task=False,
            needs_failure_detector=True,
            distinct_from_crash_stop_variant=False,
        ),
        "aguilera": AlgorithmComplexity(
            name="Aguilera et al. ◇Su (Algorithm 6)",
            fault_model="crash-recovery, lossy links",
            message_kinds=5,          # newround, estimate, newestimate, ack, decide
            state_variables=8,        # r, estimate, ts, decided, xmitmsg, max round, fd snapshot, acks
            needs_stable_storage=True,
            needs_retransmission_task=True,
            needs_failure_detector=True,
            distinct_from_crash_stop_variant=True,
        ),
    }


__all__ = [
    "RunMetrics",
    "UnifiedTrace",
    "metrics_from_trace",
    "metrics_from_des",
    "GoodPeriodStats",
    "good_period_stats",
    "AlgorithmComplexity",
    "algorithm_complexity_summary",
]
