"""The engine core: clock + event queue + seeded randomness + one run loop.

A simulator built on :class:`EngineCore` is a *policy layer*: it decides
what events mean (process steps, make-ready steps, period boundaries),
while the core owns the mechanics of a discrete-event simulation --

* the future-event list (:class:`~repro.engine.queue.EventQueue`),
* the simulated clock (:class:`~repro.engine.trace.Clock`),
* named random sub-streams (:class:`~repro.engine.rng.SeededRng`),
* the drain loop with an optional early-stop predicate.

Fault injection plugs in via
:class:`~repro.engine.faults.CrashRecoveryInjector`: the policy layer
schedules the :class:`~repro.engine.faults.FaultEvent` entries and routes
them back to :meth:`CrashRecoveryInjector.apply` from its dispatch
function.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .queue import EventQueue
from .rng import SeededRng
from .trace import Clock

Dispatch = Callable[[Any], None]
StopCondition = Callable[[], bool]


class EngineCore:
    """The kernel the step-level simulator delegates to."""

    __slots__ = ("clock", "queue", "rng")

    def __init__(self, seed: int = 0) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.rng = SeededRng(seed)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

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
