"""Event types of the asynchronous discrete-event simulator.

The DES substrate (:mod:`repro.des`) models the classical asynchronous
message-passing system assumed by the failure-detector literature that the
paper compares against (Section 2 and Appendix A): processes react to
message deliveries and timer expirations, channels have arbitrary (but
bounded-for-the-experiment) delays and may lose messages, and processes may
crash and recover.  It is intentionally separate from the step-level model
of Section 4.1 (:mod:`repro.sysmodel`): the step model is what the paper's
timing theorems are stated in, whereas this substrate is only needed to run
the Chandra-Toueg and Aguilera et al. baselines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from ..core.types import ProcessId


class EventKind(enum.Enum):
    """Kinds of simulator events.

    Crashes and recoveries are not DES events: they flow through the shared
    engine layer as :class:`repro.engine.faults.FaultEvent` entries.
    """

    DELIVER = "deliver"
    TIMER = "timer"
    START = "start"


@dataclass(frozen=True)
class Event:
    """One entry of the DES event queue, ordered by (time, sequence)."""

    time: float
    sequence: int
    kind: EventKind
    process: ProcessId
    sender: Optional[ProcessId] = None
    payload: Any = None
    timer_name: Optional[str] = None
    timer_id: int = 0

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


@dataclass
class DecisionEvent:
    """A decision reported by a process, with the time it occurred."""

    process: ProcessId
    value: Any
    time: float


__all__ = ["EventKind", "Event", "DecisionEvent"]
