"""Run metrics and structural algorithm-complexity metrics.

Two kinds of measurements back the benchmark reports:

* *run metrics* -- decision latency, rounds needed, messages exchanged --
  extracted from recorded traces (HO machine or step simulator);
* *structural metrics* -- a quantitative rendering of the paper's Section 2
  argument that the crash-recovery failure-detector algorithm (Algorithm 6)
  is far more complex than the crash-stop one (Algorithm 5), while the HO
  algorithm (Algorithm 1) is reused verbatim across fault models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Protocol

from ..core.types import DecisionRecord, ProcessId


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
    "AlgorithmComplexity",
    "algorithm_complexity_summary",
]
