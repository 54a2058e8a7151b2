"""The HO-algorithm interface: sending and transition functions per round.

An HO algorithm ``A = <S_p^r, T_p^r>`` (Section 3.1) consists of, for each
round ``r`` and process ``p``:

* a *sending function* ``S_p^r(s_p)`` that maps the state at the beginning of
  the round to the message sent to all processes, and
* a *transition function* ``T_p^r(mu, s_p)`` that maps the partial vector of
  received messages and the current state to the new state.

A problem is solved by a pair ``<A, P>`` where ``P`` is a communication
predicate over the heard-of sets.  This module defines the abstract base
class used by every consensus algorithm in :mod:`repro.algorithms`, by the
round executor :class:`repro.core.machine.HOMachine`, and by the
predicate-implementation layer in :mod:`repro.predimpl`, which drives the
same functions from a lower-level, step-based system model.
"""

from __future__ import annotations

import abc
from typing import Any, Generic, Mapping, Optional, TypeVar

from .types import ProcessId, Round

State = TypeVar("State")
Message = TypeVar("Message")


class HOAlgorithm(abc.ABC, Generic[State, Message]):
    """Abstract base class for algorithms expressed in the HO model.

    Subclasses must be *deterministic* and *side-effect free*: both functions
    must depend only on their arguments, because the same algorithm object is
    shared by all simulated processes.  State objects should be treated as
    immutable (the provided algorithms use frozen dataclasses); the
    transition function returns a new state.
    """

    #: Human-readable algorithm name (used in benchmark reports).
    name: str = "ho-algorithm"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"number of processes must be positive, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        """Number of processes the algorithm is configured for."""
        return self._n

    @abc.abstractmethod
    def initial_state(self, process: ProcessId, initial_value: Any) -> State:
        """Return the initial state of *process* with the given initial value."""

    @abc.abstractmethod
    def send(self, round: Round, process: ProcessId, state: State) -> Message:
        """The sending function ``S_p^r``: the message broadcast in *round*."""

    @abc.abstractmethod
    def transition(
        self,
        round: Round,
        process: ProcessId,
        state: State,
        received: Mapping[ProcessId, Message],
    ) -> State:
        """The transition function ``T_p^r`` applied to the received partial vector.

        *received* maps each process in ``HO(p, r)`` to the message it sent in
        round *round*.  Processes outside the heard-of set are simply absent,
        they never map to ``None``.
        """

    @abc.abstractmethod
    def decision(self, state: State) -> Optional[Any]:
        """The decision recorded in *state*, or ``None`` if none was made yet."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self._n})"


class ConsensusAlgorithm(HOAlgorithm[State, Message]):
    """Marker base class for HO algorithms that solve consensus.

    Consensus is specified by (Section 3.1):

    * *Integrity*: any decision value is the initial value of some process.
    * *Agreement*: no two processes decide differently.
    * *Termination*: all processes eventually decide (or, with restricted
      scope predicates such as ``P_restr_otr``, all processes in the scope
      ``Pi_0`` eventually decide).

    The class adds nothing to the interface; it exists so that analysis and
    benchmark code can assert it is dealing with a consensus algorithm.
    """


__all__ = ["HOAlgorithm", "ConsensusAlgorithm", "State", "Message"]
