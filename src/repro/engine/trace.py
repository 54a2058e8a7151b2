"""The unified clock and trace-recorder protocol of the engine core.

Simulated time is a real-valued global clock that only the engine may
advance; processes never read it.  Trace recording is defined as a
*protocol* rather than a class: the step-level model records into a
:class:`repro.sysmodel.trace.SystemRunTrace`, which satisfies
:class:`TraceRecorder`, so the fault-injection layer accounts crashes and
recoveries without knowing the trace class.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..core.types import ProcessId


class Clock:
    """The monotone simulated-time clock owned by the engine core."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance(self, time: float) -> None:
        """Move the clock forward to *time* (never backwards)."""
        if time > self.now:
            self.now = time


@runtime_checkable
class TraceRecorder(Protocol):
    """What the engine needs from a trace: crash / recovery accounting.

    :class:`repro.sysmodel.trace.SystemRunTrace` implements this.
    """

    def record_crash(self, process: ProcessId, time: float) -> None:
        """Account one applied crash of *process* at *time*."""
        ...

    def record_recovery(self, process: ProcessId, time: float) -> None:
        """Account one applied recovery of *process* at *time*."""
        ...


__all__ = ["Clock", "TraceRecorder"]
