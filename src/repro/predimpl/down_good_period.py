"""Algorithm 2: ensuring ``P_su(pi0, -, -)`` in a "pi0-down" good period.

The program drives an upper-layer HO algorithm (its ``S_p^r`` / ``T_p^r``
functions) from the step-based system model:

* it sends ``<msg, r>`` to all at the beginning of round ``r`` (one send
  step),
* it then takes receive steps until either it has taken
  ``ceil(2*delta + (n+2)*phi)`` of them (the round timeout) or it receives a
  message with a higher round number ``r' > r``, in which case it jumps to
  round ``r'``,
* it finally runs ``T_p^r`` with the messages received for round ``r`` and
  ``T_p^{r'}`` with the empty set for every skipped round ``r'``.

The reception policy is "highest round number first".  The round number and
the upper-layer state live on stable storage -- both are the
:class:`~repro.predimpl.program.RoundProgram` scaffold shared with
Algorithm 3 -- and after a crash the process
recovers at the top of the loop with the message set and the next-round
variable reinitialised, exactly as specified in Section 4.2.1.

Algorithm 2 sends no messages of its own: only the upper layer's messages
travel on the network.

The send -> environment -> transition loop itself belongs to the shared
:class:`repro.rounds.RoundEngine`: this program only decides *when* a round
is over (the step-level timeout/jump policy) and deposits receptions into
the engine's :class:`~repro.rounds.engine.StepTransport`; finishing a round
-- transition, skipped-round handling, unified trace records -- is engine
code shared with the HO machine and Algorithm 3.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.algorithm import HOAlgorithm
from ..core.types import ProcessId, Round
from ..rounds.engine import RoundEngine
from ..sysmodel.params import SynchronyParams
from ..sysmodel.process import ReceiveStep, SendStep, StepProgramGenerator
from ..sysmodel.trace import SystemRunTrace
from .program import ROUND_KEY, STATE_KEY, RoundProgram
from .wire import WireKind, WireMessage, round_message


class DownGoodPeriodProgram(RoundProgram):
    """One process of Algorithm 2, implementing ``P_su`` in "pi0-down" good periods."""

    def __init__(
        self,
        process_id: ProcessId,
        n: int,
        algorithm: HOAlgorithm,
        initial_value: Any,
        params: SynchronyParams,
        trace: SystemRunTrace,
        engine: Optional[RoundEngine] = None,
    ) -> None:
        super().__init__(process_id, n, algorithm, initial_value, params, trace, engine)
        #: receive-step budget per round: ceil(2*delta + (n+2)*phi)
        self.timeout = params.algorithm2_timeout(n)

    # ------------------------------------------------------------------ #
    # the program (Algorithm 2, lines 6-22)
    # ------------------------------------------------------------------ #

    def program(self) -> StepProgramGenerator:
        round_number: Round = self.stable_storage.load(ROUND_KEY)
        state = self.stable_storage.load(STATE_KEY)
        # The received-message set is volatile (lost on a crash): the mailbox
        # the engine's transport keeps for this process is cleared on (re)boot.
        self.transport.reset(self.process_id)
        next_round = round_number

        while True:
            payload = self.engine.send_payload(round_number, self.process_id, state)
            result = yield SendStep(payload=round_message(round_number, payload))
            self.trace.record_round_start(self.process_id, round_number, result.time)

            receive_steps = 0
            last_time = result.time
            while next_round == round_number:
                receive_steps += 1
                if receive_steps >= self.timeout:
                    next_round = round_number + 1
                result = yield ReceiveStep()
                last_time = result.time
                envelope = result.envelope
                if envelope is not None and isinstance(envelope.payload, WireMessage):
                    message = envelope.payload
                    if message.kind is WireKind.ROUND and message.round >= round_number:
                        self.transport.deposit(
                            self.process_id, message.round, envelope.sender, message.payload
                        )
                        self.trace.record_reception(
                            self.process_id, message.round, envelope.sender, result.time
                        )
                        if message.round > round_number:
                            next_round = message.round

            # The engine finishes the round: T^r on the collected view, T^{r'}
            # on the empty view for skipped rounds, records and mailbox pruning.
            state = self.engine.finish_rounds(
                self.process_id, round_number, next_round, state, last_time
            )
            round_number = next_round
            self.stable_storage.store(ROUND_KEY, round_number)
            self.stable_storage.store(STATE_KEY, state)


__all__ = ["DownGoodPeriodProgram"]
