"""The unified per-round record schema shared by every execution layer.

Whether a round was executed by the lockstep round engine (the HO machine)
or pieced together from steps by a predicate-implementation program, what
happened in it is the same shape: *this process*, in *this round*, heard of
*these senders*, transitioned to *this state*, and possibly decided.  Both
trace classes (:class:`repro.core.types.RunTrace` and
:class:`repro.sysmodel.trace.SystemRunTrace`) store :class:`RoundRecord`
instances, so the analysis layer (:mod:`repro.analysis`) consumes one schema
regardless of which layer produced the trace.

The heard-of set is stored as an integer bitmask (:mod:`.bitmask`), the
record's one heard-of field; the ``ho_set`` property converts it to a
``frozenset`` at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional

from .bitmask import mask_to_frozenset

#: A process identifier (processes are numbered ``0 .. n-1``).
ProcessId = int

#: A round number (rounds start at 1).
Round = int


class RoundRecord:
    """Everything recorded about one process in one round of a run.

    *time* is the (normalised) time at which the transition ran: simulated
    time for step-level runs, the round number for lockstep round-level runs.
    *ho_mask* is the heard-of set as a bitmask.
    """

    __slots__ = (
        "process",
        "round",
        "ho_mask",
        "state_after",
        "decision",
        "sent_payload",
        "time",
    )

    def __init__(
        self,
        process: ProcessId,
        round: Round,
        ho_mask: int = 0,
        state_after: Any = None,
        decision: Optional[Any] = None,
        sent_payload: Any = None,
        time: Optional[float] = None,
    ) -> None:
        self.process = process
        self.round = round
        self.ho_mask = ho_mask
        self.state_after = state_after
        self.decision = decision
        self.sent_payload = sent_payload
        self.time = time

    @property
    def ho_set(self) -> FrozenSet[ProcessId]:
        """The heard-of set as a ``frozenset`` (the API-boundary view)."""
        return mask_to_frozenset(self.ho_mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundRecord):
            return NotImplemented
        return (
            self.process == other.process
            and self.round == other.round
            and self.ho_mask == other.ho_mask
            and self.state_after == other.state_after
            and self.decision == other.decision
            and self.sent_payload == other.sent_payload
            and self.time == other.time
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RoundRecord(p={self.process}, r={self.round}, ho={sorted(self.ho_set)}, "
            f"decision={self.decision!r})"
        )


@dataclass(frozen=True)
class DecisionRecord:
    """A first decision of the upper-layer algorithm: value, round and time."""

    process: ProcessId
    value: Any
    round: Round
    time: float


__all__ = ["RoundRecord", "DecisionRecord", "ProcessId", "Round"]
