"""Fault injection for the step-based system model.

Bad periods allow every benign fault: process crashes and recoveries, send
and receive omissions, message loss, arbitrary process speeds.  They are
described in two complementary ways:

* an explicit :class:`FaultSchedule` of timed crash / recovery events
  (deterministic; the step backends' crash-stop and crash-recovery
  environments and the fault-taxonomy classifier use it), which the simulator
  applies outside the synchronous scope of good periods, and
* a probabilistic :class:`BadPeriodProcessBehavior` describing how
  unsynchronised processes behave between good periods (step gaps, the
  chance of being crashed), driven by the simulator's seeded ``steps``
  sub-stream.

Link loss and delay in bad periods is configured separately on the network
(:class:`repro.sysmodel.network.BadPeriodNetwork`) because, per the paper's
transmission-fault viewpoint, it is irrelevant whether the sender, the link
or the receiver dropped a message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List

from ..core.types import ProcessId


class FaultKind(enum.Enum):
    """Kinds of timed fault events."""

    CRASH = "crash"
    RECOVER = "recover"


@dataclass(frozen=True)
class FaultEvent:
    """A timed fault event applied to one process."""

    time: float
    kind: FaultKind
    process: ProcessId

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault events cannot happen before time 0, got {self.time}")


@dataclass
class FaultSchedule:
    """An explicit, deterministic schedule of crash and recovery events."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda event: (event.time, event.process))

    @classmethod
    def none(cls) -> "FaultSchedule":
        """No injected faults."""
        return cls(events=[])

    @classmethod
    def crash_stop(cls, crashes: Iterable[tuple[ProcessId, float]]) -> "FaultSchedule":
        """Permanent crashes: each ``(process, time)`` crashes and never recovers."""
        return cls(
            events=[FaultEvent(time, FaultKind.CRASH, process) for process, time in crashes]
        )

    @classmethod
    def crash_recovery(
        cls, incidents: Iterable[tuple[ProcessId, float, float]]
    ) -> "FaultSchedule":
        """Transient crashes: each ``(process, crash_time, recover_time)`` triple."""
        events: List[FaultEvent] = []
        for process, crash_time, recover_time in incidents:
            if recover_time <= crash_time:
                raise ValueError(
                    f"recovery at {recover_time} must come after crash at {crash_time}"
                )
            events.append(FaultEvent(crash_time, FaultKind.CRASH, process))
            events.append(FaultEvent(recover_time, FaultKind.RECOVER, process))
        return cls(events=events)


@dataclass
class BadPeriodProcessBehavior:
    """How a process behaves while *not* covered by ``pi0-sync``.

    * the gap between consecutive steps is drawn uniformly from
      ``[min_step_gap, max_step_gap]`` (may exceed ``phi``: bad-period
      processes can be arbitrarily slow);
    * with probability *stall_probability*, a scheduled step simply does not
      happen and the process re-schedules (modelling long stalls or being
      effectively down without an explicit crash event).
    """

    min_step_gap: float = 1.0
    max_step_gap: float = 5.0
    stall_probability: float = 0.2

    def __post_init__(self) -> None:
        if self.min_step_gap <= 0 or self.max_step_gap < self.min_step_gap:
            raise ValueError(
                f"invalid step gap range [{self.min_step_gap}, {self.max_step_gap}]"
            )
        if not 0.0 <= self.stall_probability < 1.0:
            raise ValueError(
                f"stall probability must be in [0, 1), got {self.stall_probability}"
            )


__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "BadPeriodProcessBehavior",
]
