"""Algorithm 3: ensuring ``P_k(pi0, -, -)`` in a "pi0-arbitrary" good period.

Unlike the "pi0-down" case, processes outside ``pi0`` are unconstrained:
they may crash, recover, run arbitrarily fast or slow, and their links may
lose or delay messages.  Algorithm 3 therefore needs explicit round
synchronisation messages:

* ``<ROUND, r, msg>`` carries the upper layer's round-``r`` payload;
* ``<INIT, r+1, msg>`` announces the intention to enter round ``r+1`` (sent
  once the round timeout ``tau_0 = 2*delta + (2n+1)*phi`` receive steps has
  expired) and piggy-backs the sender's round-``r`` payload.

A process starts round ``rho`` when it receives ``f+1`` INIT messages for
``rho`` from distinct processes, and it *jumps* to a higher round as soon as
it sees any evidence (ROUND or INIT) of that round -- the paper points out
that this jump rule is what makes synchronisation at the beginning of a good
period fast, and is the main difference with Byzantine clock-synchronisation
algorithms.  The implementation requires ``f < n/2`` where ``|pi0| = n - f``.

The reception policy selects, at the ``i``-th receive step, the message with
the highest round number *from process* ``p_(i mod n)``, falling back to an
arbitrary message; this guarantees that a fast process cannot starve the
messages of slower ones.

Round number and upper-layer state live on stable storage (the
:class:`~repro.predimpl.program.RoundProgram` scaffold shared with
Algorithm 2, which also supplies the highest-round rule); recovery restarts
the main loop with the volatile message set and next-round variable
reinitialised.

As with Algorithm 2, the send -> environment -> transition loop belongs to
the shared :class:`repro.rounds.RoundEngine`; this program contributes the
step-level round-synchronisation policy (timeouts, INIT quorums, jumps) and
deposits round evidence into the engine's step transport.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set

from ..core.algorithm import HOAlgorithm
from ..core.types import ProcessId, Round
from ..rounds.engine import RoundEngine
from ..sysmodel.network import Envelope
from ..sysmodel.params import SynchronyParams
from ..sysmodel.process import ReceiveStep, SendStep, StepProgramGenerator
from ..sysmodel.trace import SystemRunTrace
from .program import ROUND_KEY, STATE_KEY, RoundProgram
from .wire import WireKind, WireMessage, init_message, round_message


class ArbitraryGoodPeriodProgram(RoundProgram):
    """One process of Algorithm 3, implementing ``P_k`` in "pi0-arbitrary" good periods."""

    def __init__(
        self,
        process_id: ProcessId,
        n: int,
        f: int,
        algorithm: HOAlgorithm,
        initial_value: Any,
        params: SynchronyParams,
        trace: SystemRunTrace,
        engine: Optional[RoundEngine] = None,
    ) -> None:
        if not 0 <= f < n / 2:
            raise ValueError(f"Algorithm 3 requires 0 <= f < n/2, got f={f}, n={n}")
        super().__init__(process_id, n, algorithm, initial_value, params, trace, engine)
        self.f = f
        #: receive-step budget per round: ceil(tau_0) = ceil(2*delta + (2n+1)*phi)
        self.timeout = params.algorithm3_timeout(n)
        #: global receive-step counter driving the round-robin reception policy
        self._policy_counter = 0

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        # Round robin over senders: the shared rule among the messages of
        # p_(i mod n), or among all of them when it has none buffered.
        target = self._policy_counter % self.n
        from_target = [envelope for envelope in buffered if envelope.sender == target]
        return super().select_message(from_target or buffered)

    # ------------------------------------------------------------------ #
    # the program (Algorithm 3, lines 6-24)
    # ------------------------------------------------------------------ #

    def program(self) -> StepProgramGenerator:
        round_number: Round = self.stable_storage.load(ROUND_KEY)
        state = self.stable_storage.load(STATE_KEY)
        # Volatile (lost on a crash): the collected round evidence -- cleared
        # from the engine transport's mailbox on (re)boot -- and the INIT
        # senders seen per round.
        self.transport.reset(self.process_id)
        init_senders: Dict[Round, Set[ProcessId]] = {}
        next_round = round_number

        while True:
            payload = self.engine.send_payload(round_number, self.process_id, state)
            result = yield SendStep(payload=round_message(round_number, payload))
            self.trace.record_round_start(self.process_id, round_number, result.time)

            receive_steps = 0
            last_time = result.time
            while next_round == round_number:
                result = yield ReceiveStep()
                self._policy_counter += 1
                last_time = result.time
                envelope = result.envelope
                if envelope is not None and isinstance(envelope.payload, WireMessage):
                    message = envelope.payload
                    evidence_round = message.evidence_round()
                    if evidence_round >= round_number:
                        self.transport.deposit(
                            self.process_id, evidence_round, envelope.sender, message.payload
                        )
                        self.trace.record_reception(
                            self.process_id, evidence_round, envelope.sender, result.time
                        )
                    if message.kind is WireKind.INIT:
                        init_senders.setdefault(message.round, set()).add(envelope.sender)
                    if evidence_round > round_number:
                        next_round = evidence_round
                    if len(init_senders.get(round_number + 1, ())) >= self.f + 1:
                        next_round = max(round_number + 1, next_round)

                receive_steps += 1
                # The INIT is re-sent every tau_0 receive steps while the
                # process is stuck in the same round: re-sending is needed for
                # liveness when an INIT sent during a bad period was lost (the
                # case analysed by Lemma B.8), and sending it exactly once per
                # timeout window keeps the per-round step count of Theorem 6's
                # proof (one INIT send step followed by at most n receive steps).
                if receive_steps >= self.timeout:
                    receive_steps = 0
                    result = yield SendStep(
                        payload=init_message(round_number + 1, payload)
                    )
                    last_time = result.time

            state = self.engine.finish_rounds(
                self.process_id, round_number, next_round, state, last_time
            )
            round_number = next_round
            self.stable_storage.store(ROUND_KEY, round_number)
            self.stable_storage.store(STATE_KEY, state)
            init_senders = {
                entered: senders
                for entered, senders in init_senders.items()
                if entered > round_number
            }


__all__ = ["ArbitraryGoodPeriodProgram"]
