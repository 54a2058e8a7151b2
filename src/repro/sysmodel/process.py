"""Processes of the step-based system model.

A process executes a sequence of *atomic steps* (Section 4.1): in a send
step it broadcasts (or unicasts) one message and performs local computation;
in a receive step it receives at most one message from its buffer -- or the
empty message ``lambda`` when the buffer is empty -- and performs local
computation.  Steps take no time; time elapses between steps.

Programs are written as Python generators: the body yields
:class:`SendStep` / :class:`ReceiveStep` actions and gets back a
:class:`StepResult` for each of them.  This keeps the published pseudo-code
(Algorithms 2 and 3) readable as straight-line loops while the simulator
retains full control over when each step happens and what it returns.  A
crash simply discards the running generator (volatile state is lost); a
recovery asks the program for a fresh generator, which re-reads the
variables it keeps on *stable storage*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Generator, NamedTuple, Optional, Sequence, Union

from ..core.types import ProcessId
from .network import Envelope


@dataclass(frozen=True)
class SendStep:
    """A send step: broadcast *payload* (``to=None``) or unicast it to one process."""

    payload: Any
    to: Optional[ProcessId] = None


@dataclass(frozen=True)
class ReceiveStep:
    """A receive step: receive one message selected by the program's reception policy."""


StepAction = Union[SendStep, ReceiveStep]


class StepResult(NamedTuple):
    """What the simulator hands back after executing a step.

    For a receive step, *envelope* is the received message or ``None`` for
    the empty message ``lambda``.  For a send step it is always ``None``.
    *time* is the (normalised) time at which the step occurred.
    """

    time: float
    envelope: Optional[Envelope] = None


StepProgramGenerator = Generator[StepAction, StepResult, None]


class StableStorage:
    """Per-process stable storage surviving crashes.

    The predicate-implementation algorithms keep their round number and the
    consensus state on stable storage (Section 4.2); everything else is
    volatile and lost on a crash.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self.write_count = 0
        self.read_count = 0

    def store(self, key: str, value: Any) -> None:
        """Write *value* under *key* (survives crashes)."""
        self._data[key] = value
        self.write_count += 1

    def load(self, key: str, default: Any = None) -> Any:
        """Read the value stored under *key*, or *default*."""
        self.read_count += 1
        return self._data.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._data


class StepProgram(abc.ABC):
    """A process program in the step-based system model.

    Subclasses implement:

    * :meth:`program` -- the main body, a generator of step actions;
    * :meth:`select_message` -- the reception policy, picking which buffered
      message a receive step returns;
    * optionally :meth:`on_recovery` -- reinitialise volatile state after a
      crash (the default restarts :meth:`program`, which must then read its
      persistent variables back from :attr:`stable_storage`).
    """

    def __init__(self, process_id: ProcessId, n: int) -> None:
        self.process_id = process_id
        self.n = n
        self.stable_storage = StableStorage()

    @abc.abstractmethod
    def program(self) -> StepProgramGenerator:
        """The program body, started when the process first boots."""

    def on_recovery(self) -> StepProgramGenerator:
        """The program body started after a crash-recovery (default: same as boot)."""
        return self.program()

    @abc.abstractmethod
    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        """The reception policy: choose which buffered message to receive.

        Returns ``None`` when *buffered* is empty (the empty message).  The
        returned envelope must be an element of *buffered*.
        """


@dataclass
class ProcessStats:
    """Per-process crash accounting, filled in by the runtime.

    Step totals are run-wide, in :class:`~repro.sysmodel.trace.SystemRunTrace`.
    """

    crashes: int = 0
    recoveries: int = 0


class ProcessRuntime:
    """The simulator-side handle of one process.

    Tracks whether the process is up, drives its program generator one step
    at a time, and implements crash / recovery.  The heavy lifting (event
    scheduling, the network) stays in the simulator.
    """

    def __init__(self, program: StepProgram) -> None:
        self.program = program
        self.process_id = program.process_id
        self.up = True
        self.stats = ProcessStats()
        self._generator: Optional[StepProgramGenerator] = None
        self._pending_action: Optional[StepAction] = None
        #: bumped on crash/recovery and period boundaries so that stale step
        #: events in the event queue can be recognised and ignored.
        self.schedule_generation = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def boot(self) -> None:
        """Start the program for the first time."""
        self._generator = self.program.program()
        self._pending_action = self._advance_to_first_action()

    def crash(self) -> None:
        """Crash the process: discard volatile state (the running generator)."""
        if not self.up:
            return
        self.up = False
        self.stats.crashes += 1
        self._generator = None
        self._pending_action = None
        self.schedule_generation += 1

    def recover(self) -> None:
        """Recover the process: restart the program from its recovery entry point."""
        if self.up:
            return
        self.up = True
        self.stats.recoveries += 1
        self._generator = self.program.on_recovery()
        self._pending_action = self._advance_to_first_action()
        self.schedule_generation += 1

    def _advance_to_first_action(self) -> Optional[StepAction]:
        assert self._generator is not None
        try:
            return next(self._generator)
        except StopIteration:
            self._generator = None
            return None

    # ------------------------------------------------------------------ #
    # step execution
    # ------------------------------------------------------------------ #

    def next_action(self) -> Optional[StepAction]:
        """The action the process will perform at its next step (``None`` when terminated)."""
        return self._pending_action if self.up else None

    def complete_step(self, result: StepResult) -> None:
        """Feed the result of the executed step back into the program.

        The program's local computation runs now (it takes no simulated
        time) and produces the next pending action.
        """
        if not self.up or self._generator is None:
            return
        try:
            self._pending_action = self._generator.send(result)
        except StopIteration:
            self._generator = None
            self._pending_action = None


__all__ = [
    "SendStep",
    "ReceiveStep",
    "StepAction",
    "StepResult",
    "StepProgram",
    "StepProgramGenerator",
    "StableStorage",
    "ProcessRuntime",
    "ProcessStats",
]
