"""The crash / recovery fault-injection layer.

A :class:`FaultSchedule` lists timed crash and recovery events; the
simulator schedules them, and :meth:`CrashRecoveryInjector.apply` runs when
one is dispatched: it calls the simulator's ``crash`` / ``recover``
callbacks (which return whether they actually changed the process state),
records applied faults on the :class:`~repro.engine.trace.TraceRecorder`,
and honours an optional *veto* (the system model forbids faults on
processes currently covered by a good period's synchrony guarantee).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from ..core.types import ProcessId
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

    def merged_with(self, other: "FaultSchedule") -> "FaultSchedule":
        """A schedule containing the events of both schedules."""
        return FaultSchedule(events=self.events + other.events)


#: Simulator-side fault application: returns True when the process state changed.
FaultCallback = Callable[[ProcessId], bool]
#: Optional veto: returns True when the fault event must be skipped.
FaultVeto = Callable[[FaultEvent], bool]


class CrashRecoveryInjector:
    """Applies the events of a :class:`FaultSchedule` to a simulator.

    The simulator supplies ``crash`` / ``recover`` callbacks that flip its
    own process state (and return whether they did); the injector owns the
    veto bookkeeping and the trace accounting.
    """

    def __init__(
        self,
        *,
        crash: FaultCallback,
        recover: FaultCallback,
        veto: Optional[FaultVeto] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self._crash = crash
        self._recover = recover
        self._veto = veto
        self._recorder = recorder
        #: fault events skipped because the veto refused them (e.g. faults
        #: falling inside a good period's synchronous scope).
        self.skipped: List[FaultEvent] = []

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
