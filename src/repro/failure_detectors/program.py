"""Upon-event processes, run as step programs of the system model (Section 4.1).

The failure-detector baselines of Appendix A are written in the classical
"upon receive / upon timer" style: :class:`EventProcess` subclasses
implement ``on_start``, ``on_message``, ``on_timer`` and (for
crash-recovery algorithms) ``on_recover``.  :class:`EventProgram` runs one
such process as a :class:`~repro.sysmodel.process.StepProgram` on the
step-level :class:`~repro.sysmodel.simulator.SystemSimulator` -- the
simulator, good/bad period schedule and fault plan the HO stack runs under:

* a step sends the next queued message (each ``ctx.send`` is one unicast
  send step), or else receives at most one message;
* local computation happens in steps only: the start (or recovery) handler
  runs in the first step after boot (or recovery), a received message is
  handled in the step that received it, and a timer fires at the first
  step at or after its deadline;
* ``stable_store`` / ``stable_load`` use the program's stable storage, and
  a decision goes to the run's :class:`~repro.sysmodel.trace.SystemRunTrace`;
* the queued sends and the armed timers live in the step generator, so a
  crash drops them with it -- the volatile-state rule of
  :class:`~repro.sysmodel.process.ProcessRuntime`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional, Sequence

from ..core.types import ProcessId
from ..sysmodel.network import Envelope
from ..sysmodel.params import SynchronyParams
from ..sysmodel.process import ReceiveStep, SendStep, StepProgram, StepProgramGenerator
from ..sysmodel.trace import SystemRunTrace

#: A failure-detector oracle: the output a process reads when it queries it.
FailureDetectorOracle = Callable[[ProcessId], Any]


class ProcessContext:
    """The calls an :class:`EventProcess` makes on the system around it."""

    def __init__(self, program: "EventProgram") -> None:
        self._program = program
        self._now = 0.0
        self._outbox: deque = deque()
        self._timers: list = []
        self._timer_sequence = itertools.count()

    def send(self, destination: ProcessId, payload: Any) -> None:
        """Queue *payload* for *destination*; it leaves in a later send step."""
        self._outbox.append((destination, payload))

    def set_timer(self, delay: float, name: str) -> None:
        """Arm a timer; ``on_timer(name)`` runs at the first step *delay* or more later."""
        if delay < 0:
            raise ValueError(f"timer delay must be non-negative, got {delay}")
        heapq.heappush(self._timers, (self._now + delay, next(self._timer_sequence), name))

    def stable_store(self, key: str, value: Any) -> None:
        """Write to stable storage (survives crashes)."""
        self._program.stable_storage.store(key, value)

    def stable_load(self, key: str, default: Any = None) -> Any:
        """Read from stable storage."""
        return self._program.stable_storage.load(key, default)

    def decide(self, value: Any) -> None:
        """Report a consensus decision (only the first one per process is recorded)."""
        program = self._program
        program.trace.record_decision(
            program.process_id, value, program.process.round, self._now
        )

    def query_failure_detector(self) -> Any:
        """The current output of the run's failure-detector oracle."""
        program = self._program
        if program.detector is None:
            raise RuntimeError(f"process {program.process_id} has no failure detector attached")
        return program.detector(program.process_id)


class EventProcess:
    """Base class of the upon-event processes the baselines subclass.

    The timer periods are derived from the synchrony bounds, never chosen:
    with ``T`` = Algorithm 2's receive-step budget, a process polls its
    failure detector every ``T * phi`` time units (``T`` of its own steps in
    a good period) and retransmits every ``2 * T * phi``.  A process takes
    one receive per step, so retransmissions arriving faster than that
    would grow its buffer without bound.
    """

    #: the algorithm's current round, recorded with a decision
    round = 0

    def __init__(self, process_id: ProcessId, n: int, params: SynchronyParams) -> None:
        self.process_id = process_id
        self.n = n
        self.poll_period = params.algorithm2_timeout(n) * params.phi
        self.retransmit_period = 2 * self.poll_period

    def on_start(self, ctx: ProcessContext) -> None:
        """Runs in the process's first step."""

    def on_message(self, ctx: ProcessContext, sender: ProcessId, payload: Any) -> None:
        """Runs in the step that received the message."""

    def on_timer(self, ctx: ProcessContext, name: str) -> None:
        """Runs when a timer armed with :meth:`ProcessContext.set_timer` fires."""

    def on_recover(self, ctx: ProcessContext) -> None:
        """Runs in the first step after a recovery; volatile state must be rebuilt here."""


class EventProgram(StepProgram):
    """Drives one :class:`EventProcess` as a step program.

    *detector* is the run's failure-detector oracle.  It reads the
    simulator, which is built from the programs, so it is attached after
    the simulator exists.
    """

    def __init__(self, process: EventProcess, trace: SystemRunTrace) -> None:
        super().__init__(process.process_id, process.n)
        self.process = process
        self.trace = trace
        self.detector: Optional[FailureDetectorOracle] = None

    def program(self) -> StepProgramGenerator:
        return self._drive(self.process.on_start)

    def on_recovery(self) -> StepProgramGenerator:
        return self._drive(self.process.on_recover)

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        return buffered[0] if buffered else None

    def _drive(self, entry: Callable[[ProcessContext], None]) -> StepProgramGenerator:
        process = self.process
        ctx = ProcessContext(self)
        outbox = ctx._outbox
        timers = ctx._timers
        result = yield ReceiveStep()
        ctx._now = result.time
        entry(ctx)
        while True:
            envelope = result.envelope
            if envelope is not None:
                process.on_message(ctx, envelope.sender, envelope.payload)
            while timers and timers[0][0] <= ctx._now:
                process.on_timer(ctx, heapq.heappop(timers)[2])
            if outbox:
                destination, payload = outbox.popleft()
                result = yield SendStep(payload, to=destination)
            else:
                result = yield ReceiveStep()
            ctx._now = result.time


__all__ = ["EventProcess", "EventProgram", "FailureDetectorOracle", "ProcessContext"]
