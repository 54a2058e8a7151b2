"""The shared crash / recovery fault-injection layer.

Both simulators inject the same kind of fault -- a process crashes at a
scheduled time, possibly recovering later -- but used to express it twice:
the DES with ``crash_times`` / ``recovery_times`` maps, the step-level model
with a :class:`FaultSchedule`.  The schedule types now live here, and a
:class:`CrashRecoveryInjector` applies them uniformly:

* :meth:`CrashRecoveryInjector.arm` schedules the fault events into the
  engine's event queue;
* :meth:`CrashRecoveryInjector.apply` runs when a fault event is dispatched,
  calling the simulator-specific ``crash`` / ``recover`` callbacks (which
  return whether they actually changed the process state), recording applied
  faults on the :class:`~repro.engine.trace.TraceRecorder`, and honouring an
  optional *veto* (the system model forbids faults on processes currently
  covered by a good period's synchrony guarantee).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Mapping, Optional

from ..core.types import ProcessId
from .queue import EventQueue
from .trace import TraceRecorder


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

    @classmethod
    def from_maps(
        cls,
        crash_times: Mapping[ProcessId, float],
        recovery_times: Mapping[ProcessId, float],
    ) -> "FaultSchedule":
        """The DES-style description: per-process crash and recovery times.

        Every recovery must follow a crash of the same process; this is where
        the validation that used to live in ``EventSimulator.__init__`` now
        happens, for both simulators.
        """
        for process, recover_at in recovery_times.items():
            crash_at = crash_times.get(process)
            if crash_at is None or recover_at <= crash_at:
                raise ValueError(
                    f"process {process} recovers at {recover_at} without a prior crash"
                )
        events = [
            FaultEvent(time, FaultKind.CRASH, process)
            for process, time in crash_times.items()
        ]
        events.extend(
            FaultEvent(time, FaultKind.RECOVER, process)
            for process, time in recovery_times.items()
        )
        return cls(events=events)

    def merged_with(self, other: "FaultSchedule") -> "FaultSchedule":
        """A schedule containing the events of both schedules."""
        return FaultSchedule(events=self.events + other.events)


#: Simulator-side fault application: returns True when the process state changed.
FaultCallback = Callable[[ProcessId], bool]
#: Optional veto: returns True when the fault event must be skipped.
FaultVeto = Callable[[FaultEvent], bool]


class CrashRecoveryInjector:
    """Applies a :class:`FaultSchedule` to a simulator, uniformly.

    The simulator supplies ``crash`` / ``recover`` callbacks that flip its
    own process state (and return whether they did); the injector owns the
    scheduling, the veto bookkeeping and the trace accounting.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        crash: FaultCallback,
        recover: FaultCallback,
        veto: Optional[FaultVeto] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.schedule = schedule
        self._crash = crash
        self._recover = recover
        self._veto = veto
        self._recorder = recorder
        #: fault events skipped because the veto refused them (e.g. faults
        #: falling inside a good period's synchronous scope).
        self.skipped: List[FaultEvent] = []

    def arm(self, queue: EventQueue) -> None:
        """Schedule every fault event of the schedule into *queue*."""
        for event in self.schedule.events:
            queue.schedule(event.time, event)

    def apply(self, event: FaultEvent) -> bool:
        """Dispatch one fault event; returns whether it changed process state."""
        if self._veto is not None and self._veto(event):
            self.skipped.append(event)
            return False
        if event.kind is FaultKind.CRASH:
            applied = self._crash(event.process)
            if applied and self._recorder is not None:
                self._recorder.record_crash(event.process, event.time)
        elif event.kind is FaultKind.RECOVER:
            applied = self._recover(event.process)
            if applied and self._recorder is not None:
                self._recorder.record_recovery(event.process, event.time)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown fault kind {event.kind!r}")
        return applied


__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "CrashRecoveryInjector",
    "FaultCallback",
    "FaultVeto",
]
