"""Algorithm 4 / 7: translating ``P_k(Pi0, -, -)`` into ``P_su(Pi0, -, -)``.

Kernel rounds (every process of Pi0 hears of at least Pi0) are cheaper to
implement in "pi0-arbitrary" good periods than space-uniform rounds (every
process of Pi0 hears of *exactly the same* set).  Algorithm 4 bridges the
gap: it groups ``f+1`` inner rounds (with ``|Pi0| = n - f``) into one
*macro-round* of the upper-layer algorithm.  During the first ``f`` rounds
of a macro-round processes gossip the upper-layer messages they know about;
in the last round each process computes the macro-round heard-of set
``NewHO`` as the processes reported by at least ``n - f`` of the processes
it still listens to, and runs the upper layer's transition.

Theorem 8: for ``n > 2f``, if the ``f+1`` inner rounds of a macro-round all
satisfy ``P_k(Pi0, -, -)`` then every process of Pi0 computes the *same*
``NewHO`` (the set of "good" processes), which contains Pi0 -- a
space-uniform macro-round.  The property-based tests and benchmark E6 check
this empirically.

The translation is itself an HO algorithm: it runs directly in the round
model (the ``ho-theorem8-translation`` scenario of
:mod:`repro.workloads.theorems`, checked by ``tests/claims/test_theorem8.py``)
or stacked on top of Algorithm 3 in the step-level simulator
(:func:`repro.predimpl.stack.build_arbitrary_stack`, which the
``ho-step-arbitrary-otr`` scenario runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Optional

from ..core.algorithm import HOAlgorithm
from ..core.types import ProcessId, Round, all_processes


@dataclass(frozen=True)
class TranslationMessage:
    """The gossip message of Algorithm 4: the sender's ``Known`` set.

    ``known`` maps each process to the upper-layer macro-round message the
    sender knows for it.
    """

    known: Mapping[ProcessId, Any]


@dataclass(frozen=True)
class TranslationState:
    """State of Algorithm 4 for one process.

    * ``listen``: processes still listened to in the current macro-round;
    * ``known``: upper-layer messages known so far (process -> payload);
    * ``inner_state``: the upper-layer algorithm's state;
    * ``macro_round``: the upper-layer round number;
    * ``last_new_ho``: the macro heard-of set computed at the last macro-round
      boundary (recorded for analysis / tests of Theorem 8).
    """

    listen: FrozenSet[ProcessId]
    known: Mapping[ProcessId, Any]
    inner_state: Any
    macro_round: Round
    last_new_ho: Optional[FrozenSet[ProcessId]] = None


class KernelToUniformTranslation(HOAlgorithm[TranslationState, TranslationMessage]):
    """Algorithm 4: an ``f+1``-round translation of kernel rounds into space-uniform macro-rounds."""

    name = "pk-to-psu-translation"

    def __init__(self, inner: HOAlgorithm, f: int) -> None:
        super().__init__(inner.n)
        if not 0 <= f:
            raise ValueError(f"f must be non-negative, got {f}")
        if inner.n <= 2 * f:
            raise ValueError(
                f"the translation requires n > 2f, got n={inner.n}, f={f}"
            )
        self.inner = inner
        self.f = f
        self.rounds_per_macro = f + 1

    # ------------------------------------------------------------------ #
    # round structure helpers
    # ------------------------------------------------------------------ #

    def is_boundary_round(self, round: Round) -> bool:
        """Whether *round* is the last round of its macro-round (``r = 0 mod f+1``)."""
        return round % self.rounds_per_macro == 0

    # ------------------------------------------------------------------ #
    # HO-algorithm interface
    # ------------------------------------------------------------------ #

    def initial_state(self, process: ProcessId, initial_value: Any) -> TranslationState:
        inner_state = self.inner.initial_state(process, initial_value)
        first_payload = self.inner.send(1, process, inner_state)
        return TranslationState(
            listen=all_processes(self.n),
            known={process: first_payload},
            inner_state=inner_state,
            macro_round=1,
        )

    def send(
        self, round: Round, process: ProcessId, state: TranslationState
    ) -> TranslationMessage:
        return TranslationMessage(known=dict(state.known))

    def transition(
        self,
        round: Round,
        process: ProcessId,
        state: TranslationState,
        received: Mapping[ProcessId, TranslationMessage],
    ) -> TranslationState:
        listen = state.listen & frozenset(received.keys())
        if not self.is_boundary_round(round):
            merged: Dict[ProcessId, Any] = dict(state.known)
            for q in listen:
                merged.update(received[q].known)
            return TranslationState(
                listen=listen,
                known=merged,
                inner_state=state.inner_state,
                macro_round=state.macro_round,
                last_new_ho=state.last_new_ho,
            )
        return self._boundary_transition(process, state, listen, received)

    def _boundary_transition(
        self,
        process: ProcessId,
        state: TranslationState,
        listen: FrozenSet[ProcessId],
        received: Mapping[ProcessId, TranslationMessage],
    ) -> TranslationState:
        # NewHO: processes reported by at least n - f of the listened-to senders.
        report_counts: Dict[ProcessId, int] = {}
        for q in listen:
            for reported in received[q].known:
                report_counts[reported] = report_counts.get(reported, 0) + 1
        new_ho = frozenset(
            reported
            for reported, count in report_counts.items()
            if count >= self.n - self.f
        )

        upper_received: Dict[ProcessId, Any] = {}
        for member in new_ho:
            payload = self._payload_for(member, listen, received, state)
            if payload is not None:
                upper_received[member] = payload

        macro_round = state.macro_round
        inner_state = self.inner.transition(macro_round, process, state.inner_state, upper_received)
        next_macro = macro_round + 1
        next_payload = self.inner.send(next_macro, process, inner_state)
        return TranslationState(
            listen=all_processes(self.n),
            known={process: next_payload},
            inner_state=inner_state,
            macro_round=next_macro,
            last_new_ho=new_ho,
        )

    @staticmethod
    def _payload_for(
        member: ProcessId,
        listen: FrozenSet[ProcessId],
        received: Mapping[ProcessId, TranslationMessage],
        state: TranslationState,
    ) -> Optional[Any]:
        for q in sorted(listen):
            known = received[q].known
            if member in known:
                return known[member]
        return state.known.get(member)

    def decision(self, state: TranslationState) -> Optional[Any]:
        return self.inner.decision(state.inner_state)


__all__ = ["KernelToUniformTranslation", "TranslationMessage", "TranslationState"]
