"""The engine core: clock + event queue + seeded randomness + one run loop.

A simulator built on :class:`EngineCore` is a *policy layer*: it decides
what events mean (message delivery vs. process step), while the core owns
the mechanics every discrete-event simulation shares --

* the future-event list (:class:`~repro.engine.queue.EventQueue`),
* the simulated clock (:class:`~repro.engine.trace.Clock`),
* named random sub-streams (:class:`~repro.engine.rng.SeededRng`),
* the drain loop with an optional early-stop predicate.

Fault injection plugs in via
:class:`~repro.engine.faults.CrashRecoveryInjector`: the injector arms the
queue with :class:`~repro.engine.faults.FaultEvent` entries and the policy
layer routes them back to :meth:`CrashRecoveryInjector.apply` from its
dispatch function.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .faults import CrashRecoveryInjector, FaultSchedule
from .queue import EventQueue
from .rng import SeededRng
from .trace import Clock, TraceRecorder

Dispatch = Callable[[Any], None]
StopCondition = Callable[[], bool]


class EngineCore:
    """The shared kernel both simulators delegate to."""

    __slots__ = ("clock", "queue", "rng", "injector")

    def __init__(self, seed: int = 0) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.rng = SeededRng(seed)
        self.injector: Optional[CrashRecoveryInjector] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def attach_faults(
        self,
        schedule: FaultSchedule,
        *,
        crash,
        recover,
        veto=None,
        recorder: Optional[TraceRecorder] = None,
    ) -> CrashRecoveryInjector:
        """Create the fault injector for *schedule* (armed later, at start-up)."""
        self.injector = CrashRecoveryInjector(
            schedule, crash=crash, recover=recover, veto=veto, recorder=recorder
        )
        return self.injector

    def arm_faults(self) -> None:
        """Schedule the attached fault events into the queue."""
        if self.injector is not None:
            self.injector.arm(self.queue)

    def run(
        self,
        until: float,
        dispatch: Dispatch,
        stop_when: Optional[StopCondition] = None,
    ) -> bool:
        """Drain events with ``time <= until`` through *dispatch*.

        The clock advances to each event's time before it is dispatched and,
        unless *stop_when* fired, ends at ``max(now, until)``.  Returns
        whether the run stopped early.
        """
        if stop_when is not None and stop_when():
            return True
        clock = self.clock
        for time, event in self.queue.pop_due(until):
            if time > clock.now:  # Clock.advance, inline: never backwards
                clock.now = time
            dispatch(event)
            if stop_when is not None and stop_when():
                return True
        clock.advance(until)
        return False


__all__ = ["EngineCore", "Dispatch", "StopCondition"]
