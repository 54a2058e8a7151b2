"""Traces of step-level runs: what the predicate layer actually delivered, and when.

A :class:`SystemRunTrace` records, for every process and every round executed
by a predicate-implementation algorithm (:mod:`repro.predimpl`):

* the heard-of set the transition function was invoked with,
* the (normalised) time at which that transition ran,
* decisions of the upper-layer consensus algorithm, and
* message / step accounting.

The benchmark harness measures "the minimal length of a good period to
achieve P" by locating, in the trace, the earliest window of rounds
satisfying the predicate whose last transition completed after the start of
the good period, and comparing that completion time against the analytic
bounds of Theorems 3, 5, 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..predicates.static import pk_holds, psu_holds
from ..core.types import HOCollection, ProcessId, Round, validate_process_subset
from ..rounds.record import DecisionRecord, RoundRecord


@dataclass
class SystemRunTrace:
    """Everything recorded during a step-level simulation run.

    Per-round outcomes are stored under the unified
    :class:`~repro.rounds.record.RoundRecord` schema (shared with the
    round-level :class:`~repro.core.types.RunTrace`), plus step-level extras
    -- send/reception timestamps, step and crash accounting -- that only
    exist below the round abstraction.  ``SystemRunTrace`` implements the
    :class:`repro.rounds.engine.RoundTraceSink` protocol, so the shared
    :class:`~repro.rounds.RoundEngine` writes into it directly.
    """

    n: int
    ho_collection: HOCollection = None  # type: ignore[assignment]
    records: List[RoundRecord] = field(default_factory=list)
    transition_times: Dict[Tuple[ProcessId, Round], float] = field(default_factory=dict)
    round_send_times: Dict[Tuple[ProcessId, Round], float] = field(default_factory=dict)
    #: (receiver, round, sender) -> first time the receiver obtained round evidence
    #: from that sender.  Used for the "last round by reception" accounting of
    #: Theorems 6 and 7 (the INIT exchange of the last round can be ignored).
    reception_times: Dict[Tuple[ProcessId, Round, ProcessId], float] = field(default_factory=dict)
    decisions: Dict[ProcessId, DecisionRecord] = field(default_factory=dict)
    messages_sent: int = 0
    messages_dropped: int = 0
    total_send_steps: int = 0
    total_receive_steps: int = 0
    crashes: int = 0
    recoveries: int = 0

    def __post_init__(self) -> None:
        if self.ho_collection is None:
            self.ho_collection = HOCollection(self.n)

    # ------------------------------------------------------------------ #
    # recording (called by the predicate-implementation programs)
    # ------------------------------------------------------------------ #

    def record_round_start(self, process: ProcessId, round: Round, time: float) -> None:
        """Record that *process* sent its round-*round* message at *time*."""
        key = (process, round)
        if key not in self.round_send_times:
            self.round_send_times[key] = time

    def record_round_result(self, record: RoundRecord) -> None:
        """Record one executed round under the unified record schema."""
        self.records.append(record)
        self.ho_collection.record_mask(record.process, record.round, record.ho_mask)
        self.transition_times[(record.process, record.round)] = record.time

    def record_reception(
        self, process: ProcessId, round: Round, sender: ProcessId, time: float
    ) -> None:
        """Record when *process* first obtained round-*round* evidence from *sender*."""
        key = (process, round, sender)
        if key not in self.reception_times:
            self.reception_times[key] = time

    def record_decision(
        self, process: ProcessId, value: Any, round: Round, time: float
    ) -> None:
        """Record the first decision of *process* (later decisions are ignored)."""
        if process not in self.decisions:
            self.decisions[process] = DecisionRecord(process, value, round, time)

    def record_crash(self, process: ProcessId, time: float) -> None:
        """Account one applied crash (the engine's TraceRecorder hook)."""
        self.crashes += 1

    def record_recovery(self, process: ProcessId, time: float) -> None:
        """Account one applied recovery (the engine's TraceRecorder hook)."""
        self.recoveries += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def max_round(self) -> Round:
        """The largest round executed by any process."""
        return self.ho_collection.max_round

    def decision_values(self) -> Dict[ProcessId, Any]:
        """Map process -> decided value."""
        return {p: record.value for p, record in self.decisions.items()}

    def decision_records(self) -> Dict[ProcessId, DecisionRecord]:
        """Map process -> unified first-decision record (the unified-trace protocol)."""
        return dict(self.decisions)

    def decision_times(self) -> Dict[ProcessId, float]:
        """Map process -> time of first decision."""
        return {p: record.time for p, record in self.decisions.items()}

    def all_decided(self, scope: Iterable[ProcessId]) -> bool:
        """Whether every process in *scope* decided."""
        return set(scope).issubset(self.decisions)

    def last_decision_time(self, scope: Optional[Iterable[ProcessId]] = None) -> Optional[float]:
        """Time at which the last process of *scope* decided, or ``None`` if some did not."""
        scope_set = set(range(self.n)) if scope is None else set(scope)
        if not scope_set.issubset(self.decisions):
            return None
        return max(self.decisions[p].time for p in scope_set)

    def window_completion_time(
        self,
        pi0: Iterable[ProcessId],
        first_round: Round,
        last_round: Round,
        last_round_by_reception: bool = False,
    ) -> Optional[float]:
        """Time at which every process of *pi0* finished every round of the window.

        With *last_round_by_reception* the last round of the window is
        accounted as completed as soon as every process of *pi0* has
        *received* the round messages of all of *pi0*, instead of waiting for
        its transition to run.  This is the accounting used by Theorems 6
        and 7, whose proofs note that "the INIT messages can be ignored for
        the last round".
        """
        pi0_set = validate_process_subset(pi0, self.n)
        times = []
        full_transition_up_to = last_round - 1 if last_round_by_reception else last_round
        for p in pi0_set:
            for r in range(first_round, full_transition_up_to + 1):
                key = (p, r)
                if key not in self.transition_times:
                    return None
                times.append(self.transition_times[key])
            if last_round_by_reception:
                for q in pi0_set:
                    reception = self.reception_times.get((p, last_round, q))
                    if reception is None:
                        # Fall back to the transition time (e.g. the process
                        # heard of itself without an explicit reception).
                        reception = self.transition_times.get((p, last_round))
                        if reception is None or q not in self.ho_collection.ho(p, last_round):
                            return None
                    times.append(reception)
        return max(times) if times else None

    # ------------------------------------------------------------------ #
    # predicate-achievement measurements (the paper's theorems)
    # ------------------------------------------------------------------ #

    def earliest_psu_window(
        self,
        pi0: Iterable[ProcessId],
        length: int,
        not_before: float = 0.0,
        last_round_by_reception: bool = False,
    ) -> Optional[Tuple[Round, float]]:
        """Earliest window of *length* rounds satisfying ``P_su(pi0, ., .)``.

        Returns ``(first_round, completion_time)`` for the window with the
        smallest completion time strictly greater than *not_before*, or
        ``None``.  Used for Theorems 3 and 5.
        """
        return self._earliest_window(
            pi0, length, not_before, psu_holds, last_round_by_reception
        )

    def earliest_pk_window(
        self,
        pi0: Iterable[ProcessId],
        length: int,
        not_before: float = 0.0,
        last_round_by_reception: bool = False,
    ) -> Optional[Tuple[Round, float]]:
        """Earliest window of *length* rounds satisfying ``P_k(pi0, ., .)`` (Theorems 6 and 7)."""
        return self._earliest_window(
            pi0, length, not_before, pk_holds, last_round_by_reception
        )

    def earliest_p2otr(
        self, pi0: Iterable[ProcessId], not_before: float = 0.0
    ) -> Optional[Tuple[Round, float]]:
        """Earliest pair of consecutive rounds forming ``P_2otr(pi0)`` (Corollary 4).

        Returns ``(r0, completion_time_of_r0_plus_1)``.
        """
        pi0_set = validate_process_subset(pi0, self.n)
        best: Optional[Tuple[Round, float]] = None
        for r0 in range(1, self.max_round()):
            if not psu_holds(self.ho_collection, pi0_set, r0, r0):
                continue
            if not pk_holds(self.ho_collection, pi0_set, r0 + 1, r0 + 1):
                continue
            completion = self.window_completion_time(pi0_set, r0, r0 + 1)
            if completion is None or completion <= not_before:
                continue
            if best is None or completion < best[1]:
                best = (r0, completion)
        return best

    def _earliest_window(
        self,
        pi0: Iterable[ProcessId],
        length: int,
        not_before: float,
        predicate,
        last_round_by_reception: bool = False,
    ) -> Optional[Tuple[Round, float]]:
        pi0_set = validate_process_subset(pi0, self.n)
        best: Optional[Tuple[Round, float]] = None
        for first in range(1, self.max_round() - length + 2):
            last = first + length - 1
            if not predicate(self.ho_collection, pi0_set, first, last):
                continue
            completion = self.window_completion_time(
                pi0_set, first, last, last_round_by_reception=last_round_by_reception
            )
            if completion is None or completion <= not_before:
                continue
            if best is None or completion < best[1]:
                best = (first, completion)
        return best


__all__ = ["SystemRunTrace", "DecisionRecord"]
