"""The Aguilera-Chen-Toueg crash-recovery consensus algorithm (Algorithm 6).

This is the second baseline of the paper's Appendix A: consensus in the
crash-*recovery* model with stable storage, the ◇Su failure detector (a
trust list with epoch numbers) and lossy links compensated by per-link
retransmission ("s-send" plus a retransmit task).

The point the paper makes with this algorithm is structural: although the
*problem* barely changed (crashes became transient instead of permanent),
the failure-detector solution changes drastically -- a new failure detector,
stable storage writes on the critical path, an explicit retransmission task,
a round-skipping task, and recovery handlers.  Compare with the HO stack,
where Algorithm 1 is reused verbatim and only the predicate-implementation
layer deals with recoveries.  Experiment E8 quantifies the comparison;
:func:`algorithm_complexity_summary` in :mod:`repro.analysis.metrics`
reports the structural metrics.

The implementation follows the published pseudo-code task by task, with the
"wait until" conditions turned into message-driven state checks and the
``retransmit`` / ``skip_round`` tasks turned into periodic timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.types import ProcessId
from ..des.simulator import DESProcess, ProcessContext
from .detectors import TrustListOutput


@dataclass(frozen=True)
class ACTMessage:
    """Wire message of the Aguilera-Chen-Toueg algorithm."""

    kind: str  # "newround", "estimate", "newestimate", "ack", "decide"
    round: int = 0
    estimate: Any = None
    timestamp: int = 0


class AguileraProcess(DESProcess):
    """One process of the Aguilera et al. crash-recovery consensus algorithm."""

    #: period between retransmissions of the last message sent per link
    RETRANSMIT_PERIOD = 2.0
    #: period between failure-detector polls of the skip_round task
    FD_POLL_PERIOD = 1.0

    def __init__(self, process_id: ProcessId, n: int, initial_value: Any) -> None:
        super().__init__(process_id, n)
        self.initial_value = initial_value
        # Volatile state; rebuilt from stable storage on recovery.
        self.round = 1
        self.estimate = initial_value
        self.timestamp = 0
        self.decided: Optional[Any] = None
        self.xmitmsg: Dict[ProcessId, Optional[ACTMessage]] = {}
        self.max_round_seen = 1
        self._estimates: Dict[int, Dict[ProcessId, Tuple[Any, int]]] = {}
        self._acks: Dict[int, Set[ProcessId]] = {}
        self._round_start_fd: Optional[TrustListOutput] = None
        self.messages_sent = 0
        self.stable_writes = 0

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def coordinator(self, round: int) -> ProcessId:
        """The rotating coordinator of *round* (rounds are 1-based)."""
        return (round - 1) % self.n

    def majority(self) -> int:
        return self.n // 2 + 1

    def _store(self, ctx: ProcessContext, **values: Any) -> None:
        for key, value in values.items():
            ctx.stable_store(key, value)
            self.stable_writes += 1

    def _s_send(self, ctx: ProcessContext, destination: ProcessId, message: ACTMessage) -> None:
        """The paper's s-send: remember the message for retransmission, then send."""
        self.xmitmsg[destination] = message
        self.messages_sent += 1
        if destination == self.process_id:
            # "simulate receive m from p": loop the message back locally.
            self.on_message(ctx, self.process_id, message)
        else:
            ctx.send(destination, message)

    def _s_send_all(self, ctx: ProcessContext, message: ACTMessage) -> None:
        for destination in range(self.n):
            self._s_send(ctx, destination, message)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def on_start(self, ctx: ProcessContext) -> None:
        # upon propose(v): store the proposal and fork the tasks.
        self._store(ctx, proposed=True, round=1, estimate=self.initial_value, timestamp=0)
        self._start_tasks(ctx)
        self._start_4phases(ctx)

    def on_recover(self, ctx: ProcessContext) -> None:
        # upon recovery: reload stable state; resume only if undecided.
        self.xmitmsg = {}
        self._estimates = {}
        self._acks = {}
        self.max_round_seen = 1
        decided_value = ctx.stable_load("decided")
        if decided_value is not None:
            self.decided = decided_value
            return
        if not ctx.stable_load("proposed", False):
            return
        self.round = ctx.stable_load("round", 1)
        self.estimate = ctx.stable_load("estimate", self.initial_value)
        self.timestamp = ctx.stable_load("timestamp", 0)
        self.decided = None
        self._start_tasks(ctx)
        self._start_4phases(ctx)

    def _start_tasks(self, ctx: ProcessContext) -> None:
        ctx.set_timer(self.RETRANSMIT_PERIOD, "retransmit")
        ctx.set_timer(self.FD_POLL_PERIOD, "skip-round")

    # ------------------------------------------------------------------ #
    # the 4phases task
    # ------------------------------------------------------------------ #

    def _start_4phases(self, ctx: ProcessContext) -> None:
        if self.decided is not None:
            return
        self._store(ctx, round=self.round)
        self._round_start_fd = ctx.query_failure_detector()
        coordinator = self.coordinator(self.round)
        if self.process_id == coordinator:
            if self.timestamp != self.round:
                # Phase NEWROUND: ask everyone for their estimates.
                self._s_send_all(ctx, ACTMessage("newround", self.round))
            else:
                # Recovered with an adopted estimate: go straight to NEWESTIMATE.
                self._s_send_all(
                    ctx, ACTMessage("newestimate", self.round, self.estimate)
                )
        # Phase ESTIMATE (participant side).
        if self.timestamp != self.round:
            self._s_send(
                ctx,
                coordinator,
                ACTMessage("estimate", self.round, self.estimate, self.timestamp),
            )
        elif self.process_id != coordinator:
            # timestamp == round means the stable state proves an ACK for this
            # round was already s-sent, but the crash wiped it from the
            # volatile xmitmsg.  Re-issue it so retransmission resumes --
            # otherwise a process recovering right after its ACK stays silent
            # and, once everybody else decided and went quiet, blocks forever.
            # Acks are collected in a set, so the duplicate is harmless.
            self._s_send(ctx, coordinator, ACTMessage("ack", self.round))

    # ------------------------------------------------------------------ #
    # timers: retransmission and skip_round
    # ------------------------------------------------------------------ #

    def on_timer(self, ctx: ProcessContext, name: str) -> None:
        if name == "retransmit":
            self._retransmit(ctx)
            ctx.set_timer(self.RETRANSMIT_PERIOD, "retransmit")
        elif name == "skip-round":
            self._skip_round_check(ctx)
            if self.decided is None:
                ctx.set_timer(self.FD_POLL_PERIOD, "skip-round")

    def _retransmit(self, ctx: ProcessContext) -> None:
        if self.decided is not None:
            return
        for destination, message in self.xmitmsg.items():
            if message is not None and destination != self.process_id:
                self.messages_sent += 1
                ctx.send(destination, message)

    def _skip_round_check(self, ctx: ProcessContext) -> None:
        """The skip_round task: abort the round when the coordinator is no longer viable."""
        if self.decided is not None:
            return
        detector: TrustListOutput = ctx.query_failure_detector()
        coordinator = self.coordinator(self.round)
        started = self._round_start_fd
        coordinator_failed = not detector.trusts(coordinator)
        epoch_increased = (
            started is not None
            and detector.epoch.get(coordinator, 0) > started.epoch.get(coordinator, 0)
        )
        higher_round_seen = self.max_round_seen > self.round
        if not (coordinator_failed or epoch_increased or higher_round_seen):
            return
        if not detector.trustlist:
            return
        # Pick the smallest round r' > round whose coordinator is trusted and
        # which is at least as large as any round number seen in messages.
        candidate = max(self.round + 1, self.max_round_seen)
        while self.coordinator(candidate) not in detector.trustlist:
            candidate += 1
        self.round = candidate
        self._start_4phases(ctx)

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def on_message(self, ctx: ProcessContext, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, ACTMessage):
            return
        if payload.kind == "decide":
            self._deliver_decide(ctx, payload.estimate)
            return
        if self.decided is not None:
            # Already decided: answer any other message with the decision.
            self._s_send(ctx, sender, ACTMessage("decide", 0, self.decided))
            return
        self.max_round_seen = max(self.max_round_seen, payload.round)
        if payload.kind == "newround":
            self._handle_newround(ctx, payload)
        elif payload.kind == "estimate":
            self._handle_estimate(ctx, sender, payload)
        elif payload.kind == "newestimate":
            self._handle_newestimate(ctx, sender, payload)
        elif payload.kind == "ack":
            self._handle_ack(ctx, sender, payload)

    def _handle_newround(self, ctx: ProcessContext, payload: ACTMessage) -> None:
        if payload.round != self.round:
            return
        if self.timestamp != self.round:
            self._s_send(
                ctx,
                self.coordinator(self.round),
                ACTMessage("estimate", self.round, self.estimate, self.timestamp),
            )

    def _handle_estimate(self, ctx: ProcessContext, sender: ProcessId, payload: ACTMessage) -> None:
        if self.process_id != self.coordinator(payload.round):
            return
        store = self._estimates.setdefault(payload.round, {})
        store[sender] = (payload.estimate, payload.timestamp)
        if payload.round != self.round or self.timestamp == self.round:
            return
        if len(store) >= self.majority():
            best_timestamp = max(timestamp for _, timestamp in store.values())
            candidates = sorted(
                (estimate for estimate, timestamp in store.values() if timestamp == best_timestamp),
                key=repr,
            )
            self.estimate = candidates[0]
            self.timestamp = self.round
            self._store(ctx, estimate=self.estimate, timestamp=self.timestamp)
            self._s_send_all(ctx, ACTMessage("newestimate", self.round, self.estimate))

    def _handle_newestimate(self, ctx: ProcessContext, sender: ProcessId, payload: ACTMessage) -> None:
        if payload.round != self.round:
            return
        coordinator = self.coordinator(self.round)
        if sender != coordinator:
            return
        if self.process_id != coordinator:
            self.estimate = payload.estimate
            self.timestamp = self.round
            self._store(ctx, estimate=self.estimate, timestamp=self.timestamp)
        self._s_send(ctx, coordinator, ACTMessage("ack", self.round))

    def _handle_ack(self, ctx: ProcessContext, sender: ProcessId, payload: ACTMessage) -> None:
        if self.process_id != self.coordinator(payload.round) or payload.round != self.round:
            return
        acks = self._acks.setdefault(payload.round, set())
        acks.add(sender)
        if len(acks) >= self.majority():
            self._s_send_all(ctx, ACTMessage("decide", self.round, self.estimate))

    def _deliver_decide(self, ctx: ProcessContext, value: Any) -> None:
        if self.decided is None:
            self.decided = value
            self._store(ctx, decided=value)
            ctx.decide(value)


def build_aguilera_processes(n: int, initial_values: List[Any]) -> List[AguileraProcess]:
    """One :class:`AguileraProcess` per process."""
    if len(initial_values) != n:
        raise ValueError(f"expected {n} initial values, got {len(initial_values)}")
    return [AguileraProcess(p, n, initial_values[p]) for p in range(n)]


__all__ = ["ACTMessage", "AguileraProcess", "build_aguilera_processes"]
