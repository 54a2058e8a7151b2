"""The process scaffold shared by Algorithms 2 and 3 (Section 4.2).

Both round-synchronisation layers implement the same HO-layer contract: a
process keeps ``r_p`` and ``s_p`` on stable storage, sends its round message,
takes receive steps until its round-end rule fires and runs ``T_p^r``.  Only
the round-end rule (a subclass's ``program()``) and the reception policy
differ, so :class:`RoundProgram` holds the rest: the wiring into the shared
:class:`~repro.rounds.RoundEngine` and its step transport, the stable-storage
keys and their initialisation, the "highest round number first, oldest among
equals" reception rule, and :meth:`RoundProgram.build`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.algorithm import HOAlgorithm
from ..core.types import ProcessId
from ..rounds.engine import RoundEngine, StepTransport
from ..sysmodel.network import Envelope
from ..sysmodel.params import SynchronyParams
from ..sysmodel.process import StepProgram
from ..sysmodel.trace import SystemRunTrace
from .wire import WireMessage

#: Stable-storage keys used by the programs (Section 4.2: ``r_p`` and ``s_p``).
ROUND_KEY = "round"
STATE_KEY = "state"


def _reception_key(envelope: Envelope) -> tuple:
    """Order envelopes by round number, then oldest first among equal rounds."""
    payload = envelope.payload
    round_number = payload.round if isinstance(payload, WireMessage) else 0
    return (round_number, -envelope.sequence)


class RoundProgram(StepProgram):
    """One process of a round-synchronisation layer driving *algorithm*.

    Subclasses supply ``program()`` -- the paper's round loop, which must
    read ``r_p`` and ``s_p`` back from :attr:`stable_storage` -- and set
    :attr:`timeout`, the round's receive-step budget.
    """

    timeout: int

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
        super().__init__(process_id, n)
        self.algorithm = algorithm
        self.params = params
        self.trace = trace
        if engine is None:
            engine = RoundEngine(algorithm, StepTransport(n), trace)
        self.engine = engine
        self.transport: StepTransport = engine.transport
        self.stable_storage.store(ROUND_KEY, 1)
        self.stable_storage.store(
            STATE_KEY, algorithm.initial_state(process_id, initial_value)
        )

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        """Highest round number first; among equal rounds, the oldest envelope."""
        if not buffered:
            return None
        return max(buffered, key=_reception_key)

    @classmethod
    def build(
        cls,
        algorithm: HOAlgorithm,
        initial_values: Sequence[Any],
        params: SynchronyParams,
        trace: SystemRunTrace,
        observers: Sequence[Any] = (),
        **options: Any,
    ) -> List[RoundProgram]:
        """One program per process, all sharing *trace* and one round engine.

        *observers* are :class:`~repro.rounds.engine.RoundObserver` hooks fed
        every record the shared engine produces (streaming predicate monitors
        ride here); *options* are the subclass's own constructor arguments
        (Algorithm 3's ``f``).
        """
        n = algorithm.n
        if len(initial_values) != n:
            raise ValueError(f"expected {n} initial values, got {len(initial_values)}")
        engine = RoundEngine(algorithm, StepTransport(n), trace, observers=observers)
        return [
            cls(process_id=p, n=n, algorithm=algorithm, initial_value=initial_values[p],
                params=params, trace=trace, engine=engine, **options)
            for p in range(n)
        ]


__all__ = ["RoundProgram", "ROUND_KEY", "STATE_KEY"]
