"""The Chandra-Toueg ◇S consensus algorithm for the crash-stop model (Algorithm 5).

This is the baseline the paper contrasts with the HO approach: the rotating
coordinator algorithm of Chandra & Toueg, which solves consensus in an
asynchronous system augmented with the ◇S failure detector, a majority of
correct processes, and **reliable** channels.  Each round has four phases:

1. every process sends its timestamped estimate to the round's coordinator;
2. the coordinator waits for a majority of estimates and picks the one with
   the largest timestamp;
3. every process waits for the coordinator's new estimate *or* suspects the
   coordinator (the failure-detector query), answering with ACK or NACK;
4. the coordinator waits for a majority of answers; if they are all ACKs it
   reliably broadcasts the decision.

The dependence on reliable links and on the crash-*stop* assumption is the
point of experiment E8: once a message it waits for is lost, or a process
recovers without its state, the same algorithm may block forever (never
decide wrongly), whereas the HO stack of Section 4 is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.types import ProcessId
from ..sysmodel.params import SynchronyParams
from .program import EventProcess, ProcessContext


@dataclass(frozen=True)
class CTMessage:
    """Wire message of the Chandra-Toueg algorithm."""

    kind: str  # "estimate", "newestimate", "ack", "nack", "decide"
    round: int = 0
    estimate: Any = None
    timestamp: int = 0


class ChandraTouegProcess(EventProcess):
    """One process of the Chandra-Toueg ◇S rotating-coordinator algorithm."""

    def __init__(
        self, process_id: ProcessId, n: int, params: SynchronyParams, initial_value: Any
    ) -> None:
        super().__init__(process_id, n, params)
        self.initial_value = initial_value
        # Volatile algorithm state (crash-stop: nothing survives a crash).
        self.estimate = initial_value
        self.timestamp = 0
        self.round = 0
        self.decided: Optional[Any] = None
        self.waiting_phase: Optional[int] = None
        self._phase1_msgs: Dict[int, Dict[ProcessId, Tuple[Any, int]]] = {}
        self._phase3_answers: Dict[int, Dict[ProcessId, bool]] = {}
        self._newestimates: Dict[int, Any] = {}
        self._relayed_decide = False
        self.messages_sent = 0

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def coordinator(self, round: int) -> ProcessId:
        """The rotating coordinator of *round* (rounds are 1-based)."""
        return (round - 1) % self.n

    def majority(self) -> int:
        """The quorum size ceil((n+1)/2)."""
        return self.n // 2 + 1

    def _send(self, ctx: ProcessContext, destination: ProcessId, message: CTMessage) -> None:
        self.messages_sent += 1
        ctx.send(destination, message)

    def _broadcast(self, ctx: ProcessContext, message: CTMessage) -> None:
        for destination in range(self.n):
            self._send(ctx, destination, message)

    # ------------------------------------------------------------------ #
    # round machinery
    # ------------------------------------------------------------------ #

    def on_start(self, ctx: ProcessContext) -> None:
        self._start_round(ctx, 1)
        ctx.set_timer(self.poll_period, "fd-poll")

    def _start_round(self, ctx: ProcessContext, round: int) -> None:
        if self.decided is not None:
            return
        self.round = round
        coordinator = self.coordinator(round)
        # Phase 1: send the timestamped estimate to the coordinator.
        self._send(
            ctx,
            coordinator,
            CTMessage("estimate", round, self.estimate, self.timestamp),
        )
        # Phase 2 is the coordinator's wait; phase 3 is everybody's wait.
        self.waiting_phase = 2 if self.process_id == coordinator else 3
        self._maybe_finish_phase2(ctx)
        self._maybe_finish_phase3(ctx)

    def on_timer(self, ctx: ProcessContext, name: str) -> None:
        if name != "fd-poll" or self.decided is not None:
            return
        if self.waiting_phase == 3:
            suspects = ctx.query_failure_detector()
            coordinator = self.coordinator(self.round)
            if coordinator in suspects and self.round not in self._newestimates:
                # Suspect the coordinator: NACK and move on to the next round.
                self._send(ctx, coordinator, CTMessage("nack", self.round))
                self._start_round(ctx, self.round + 1)
        ctx.set_timer(self.poll_period, "fd-poll")

    def on_message(self, ctx: ProcessContext, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, CTMessage):
            return
        if payload.kind == "decide":
            self._deliver_decide(ctx, payload.estimate)
            return
        if self.decided is not None:
            return
        if payload.kind == "estimate":
            store = self._phase1_msgs.setdefault(payload.round, {})
            store[sender] = (payload.estimate, payload.timestamp)
            self._maybe_finish_phase2(ctx)
        elif payload.kind == "newestimate":
            self._newestimates[payload.round] = payload.estimate
            self._maybe_finish_phase3(ctx)
        elif payload.kind in ("ack", "nack"):
            answers = self._phase3_answers.setdefault(payload.round, {})
            answers[sender] = payload.kind == "ack"
            self._maybe_finish_phase4(ctx)

    # Phase 2: the coordinator selects the estimate with the largest timestamp.
    def _maybe_finish_phase2(self, ctx: ProcessContext) -> None:
        if self.waiting_phase != 2 or self.process_id != self.coordinator(self.round):
            return
        received = self._phase1_msgs.get(self.round, {})
        if len(received) < self.majority():
            return
        best_timestamp = max(timestamp for _, timestamp in received.values())
        candidates = sorted(
            (estimate for estimate, timestamp in received.values() if timestamp == best_timestamp),
            key=repr,
        )
        self.estimate = candidates[0]
        self._broadcast(ctx, CTMessage("newestimate", self.round, self.estimate))
        self.waiting_phase = 3
        self._maybe_finish_phase3(ctx)

    # Phase 3: adopt the coordinator's estimate and ACK it.
    def _maybe_finish_phase3(self, ctx: ProcessContext) -> None:
        if self.waiting_phase != 3:
            return
        if self.round not in self._newestimates:
            return
        coordinator = self.coordinator(self.round)
        self.estimate = self._newestimates[self.round]
        self.timestamp = self.round
        self._send(ctx, coordinator, CTMessage("ack", self.round))
        if self.process_id == coordinator:
            self.waiting_phase = 4
            self._maybe_finish_phase4(ctx)
        else:
            self._start_round(ctx, self.round + 1)

    # Phase 4: the coordinator counts ACKs and reliably broadcasts the decision.
    def _maybe_finish_phase4(self, ctx: ProcessContext) -> None:
        if self.waiting_phase != 4 or self.process_id != self.coordinator(self.round):
            return
        answers = self._phase3_answers.get(self.round, {})
        if len(answers) < self.majority():
            return
        acks = sum(1 for positive in answers.values() if positive)
        if acks >= self.majority():
            self._broadcast(ctx, CTMessage("decide", self.round, self.estimate))
            self._deliver_decide(ctx, self.estimate)
        else:
            self._start_round(ctx, self.round + 1)

    # Reliable broadcast of the decision: relay on first delivery, then decide.
    def _deliver_decide(self, ctx: ProcessContext, value: Any) -> None:
        if not self._relayed_decide:
            self._relayed_decide = True
            self._broadcast(ctx, CTMessage("decide", self.round, value))
        if self.decided is None:
            self.decided = value
            ctx.decide(value)


def build_chandra_toueg_processes(
    n: int, initial_values: List[Any], params: SynchronyParams
) -> List[ChandraTouegProcess]:
    """One :class:`ChandraTouegProcess` per process."""
    if len(initial_values) != n:
        raise ValueError(f"expected {n} initial values, got {len(initial_values)}")
    return [ChandraTouegProcess(p, n, params, initial_values[p]) for p in range(n)]


__all__ = ["CTMessage", "ChandraTouegProcess", "build_chandra_toueg_processes"]
