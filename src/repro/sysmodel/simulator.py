"""The step-level discrete-event simulator of the system model (Section 4.1).

The paper's system has one real-valued global clock, advanced by process
steps and make-ready steps.  :class:`SystemSimulator` owns that clock
(:attr:`SystemSimulator.now`), the future-event list (a heap of
``(time, sequence, event)`` triples; the sequence number keeps events of
equal time in FIFO order) and the run loop, and decides what each event
means:

* process steps -- each up process executes its next send or receive step at
  times governed by the synchrony assumptions (``pi0-sync`` in good periods,
  a configurable arbitrary behaviour in bad periods);
* make-ready steps of the network (``network_p -> buffer_p``), planned by
  :class:`repro.sysmodel.network.Network` with the ``delta`` bound in good
  periods and the bad-period policy otherwise;
* good/bad period boundaries (recovering the pi0 processes, forcing down the
  others for ``pi0-down`` periods, purging their in-transit messages);
* injected crash / recovery fault events of a
  :class:`~repro.sysmodel.faults.FaultSchedule` (events violating a good
  period are vetoed and show up in :attr:`SystemSimulator.skipped_fault_events`).

Randomness is split over two named :class:`~repro.engine.rng.SeededRng`
sub-streams: ``steps`` drives bad-period step gaps and stalls, ``network``
drives bad-period link delay and loss -- so changing the channel noise model
never perturbs step or fault timing.  Everything is deterministic for a
fixed seed; no wall-clock time, threads or asyncio are involved, so
worst-case schedules can be replayed exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.types import ProcessId
from ..engine.rng import SeededRng
from .faults import BadPeriodProcessBehavior, FaultEvent, FaultKind, FaultSchedule
from .network import BadPeriodNetwork, Network
from .params import SynchronyParams
from .periods import GoodPeriod, GoodPeriodKind, PeriodSchedule, step_scope
from .process import (
    ProcessRuntime,
    ReceiveStep,
    SendStep,
    StepProgram,
    StepResult,
)
from .trace import SystemRunTrace


class SystemSimulator:
    """Deterministic discrete-event simulator for step-level process programs.

    Parameters
    ----------
    programs:
        One :class:`~repro.sysmodel.process.StepProgram` per process,
        indexed by process id.
    params:
        The synchrony bounds ``(phi, delta)``.
    schedule:
        The good/bad period schedule.
    fault_schedule:
        Explicit crash/recovery events (applied only outside the synchronous
        scope of good periods; events violating a good period are ignored
        and counted in :attr:`skipped_fault_events`).
    bad_process_behavior / bad_network:
        Behaviour of processes and links not covered by ``pi0-sync``.
    good_step_gap:
        Time between consecutive steps of a synchronous process, in
        ``[1, phi]``.  The default ``phi`` reproduces the worst case assumed
        by the analytic bounds.
    good_delay_factor:
        Fraction of ``delta`` used for synchronous transmissions (1.0 =
        worst case).
    seed:
        Master seed for all randomised choices (bad-period behaviour); the
        isolated ``steps`` and ``network`` sub-streams are derived from it.
    """

    def __init__(
        self,
        programs: Sequence[StepProgram],
        params: SynchronyParams,
        schedule: PeriodSchedule,
        fault_schedule: Optional[FaultSchedule] = None,
        bad_process_behavior: Optional[BadPeriodProcessBehavior] = None,
        bad_network: Optional[BadPeriodNetwork] = None,
        good_step_gap: Optional[float] = None,
        good_delay_factor: float = 1.0,
        seed: int = 0,
        trace: Optional[SystemRunTrace] = None,
    ) -> None:
        self.n = len(programs)
        if self.n == 0:
            raise ValueError("at least one process program is required")
        if schedule.n != self.n:
            raise ValueError(
                f"period schedule is for {schedule.n} processes, got {self.n} programs"
            )
        self.params = params
        self.schedule = schedule
        self.fault_schedule = fault_schedule if fault_schedule is not None else FaultSchedule.none()
        for fault in self.fault_schedule.events:
            if not 0 <= fault.process < self.n:
                raise ValueError(
                    f"fault event at time {fault.time} names process {fault.process},"
                    f" outside 0..{self.n - 1}"
                )
        self.bad_process_behavior = (
            bad_process_behavior if bad_process_behavior is not None else BadPeriodProcessBehavior()
        )
        self.good_step_gap = params.phi if good_step_gap is None else good_step_gap
        if not 1.0 <= self.good_step_gap <= params.phi:
            raise ValueError(
                f"good_step_gap must be in [1, phi={params.phi}], got {self.good_step_gap}"
            )
        self.trace = trace if trace is not None else SystemRunTrace(n=self.n)
        #: current simulated time; only the run loop moves it, never backwards.
        self.now = 0.0
        self._heap: List[Tuple[float, int, Any]] = []
        self._sequence = itertools.count()
        rng = SeededRng(seed)
        self._rng = rng.stream("steps")
        #: fault events vetoed because they fell inside a good period's scope.
        self.skipped_fault_events: List[FaultEvent] = []
        self.network = Network(
            n=self.n,
            params=params,
            schedule=schedule,
            bad_behavior=bad_network,
            good_delay_factor=good_delay_factor,
            rng=rng.stream("network"),
        )
        self.runtimes: List[ProcessRuntime] = [ProcessRuntime(program) for program in programs]
        self._started = False

    # ------------------------------------------------------------------ #
    # event-queue helpers
    # ------------------------------------------------------------------ #
    #
    # Queue entries are plain tuples headed by the bound handler that
    # consumes them -- ``(handler, *payload)`` -- so routing an event is one
    # index and one call, with nothing to construct or type-test.

    def _schedule_event(self, time: float, event: tuple) -> None:
        """Queue *event* at *time*, after every event already queued for that time."""
        heapq.heappush(self._heap, (time, next(self._sequence), event))

    def _schedule_step(self, process: ProcessId, time: float) -> None:
        self._schedule_event(
            time, (self._handle_step, process, self.runtimes[process].schedule_generation)
        )

    # ------------------------------------------------------------------ #
    # start-up
    # ------------------------------------------------------------------ #

    def _start(self) -> None:
        self._started = True
        for runtime in self.runtimes:
            runtime.boot()
        for process in range(self.n):
            first_gap = self._step_gap(process, 0.0)
            if first_gap is not None:
                self._schedule_step(process, first_gap)
        for period in self.schedule.good_periods:
            self._schedule_event(period.start, (self._handle_period_start, period))
        for fault in self.fault_schedule.events:
            self._schedule_event(fault.time, (self._handle_fault, fault))

    # ------------------------------------------------------------------ #
    # step scheduling policy
    # ------------------------------------------------------------------ #

    def _step_gap(self, process: ProcessId, time: float) -> Optional[float]:
        """The time until the first step of *process* after booting or recovering at *time*.

        ``None`` means no step is scheduled (the process is forced down).
        Steady-state rescheduling happens inside :meth:`_handle_step`, which
        draws from the same ``steps`` stream in the same order.
        """
        if self.schedule.is_down(process, time):
            return None
        if self.schedule.is_synchronous(process, time):
            return self.good_step_gap
        behavior = self.bad_process_behavior
        return self._rng.uniform(behavior.min_step_gap, behavior.max_step_gap)

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #

    def _handle_step(self, event: tuple) -> None:
        _, process, generation = event
        runtime = self.runtimes[process]
        if not runtime.up or generation != runtime.schedule_generation:
            return
        now = self.now
        period = self.schedule.period_at(now)
        down, synchronous = step_scope(period, process)
        if down:
            # Down processes take no steps; they will be rescheduled when they recover.
            return

        if synchronous:
            self._execute_step(process, runtime, now, period)
            gap = self.good_step_gap
        else:
            # A bad-period process may stall (skip the step it was about to
            # take) and steps again after an arbitrary gap; the draw order --
            # stall, then gap -- is part of the per-seed contract.
            rng = self._rng
            behavior = self.bad_process_behavior
            if not rng.random() < behavior.stall_probability:
                self._execute_step(process, runtime, now, period)
            gap = rng.uniform(behavior.min_step_gap, behavior.max_step_gap)
        if runtime.up:
            self._schedule_step(process, now + gap)

    def _execute_step(
        self,
        process: ProcessId,
        runtime: ProcessRuntime,
        now: float,
        period: Optional[GoodPeriod],
    ) -> None:
        action = runtime.next_action()
        if action is None:
            return
        if isinstance(action, ReceiveStep):  # tested first: ~90% of all steps
            buffered = self.network.buffered(process)
            envelope = runtime.program.select_message(buffered) if buffered else None
            if envelope is not None:
                self.network.take_from_buffer(process, envelope)
            self.trace.total_receive_steps += 1
            runtime.complete_step(StepResult(now, envelope))
        elif isinstance(action, SendStep):
            network = self.network
            receivers = range(self.n) if action.to is None else (action.to,)
            envelopes = network.send(process, receivers, action.payload, now)
            self.trace.messages_sent += len(envelopes)
            for envelope in envelopes:
                # Lost copies are counted by the network (``messages_dropped``).
                ready_time = network.plan_delivery(envelope, period)
                if ready_time is not None:
                    self._schedule_event(
                        ready_time if ready_time > now else now,
                        (self._handle_make_ready, envelope),
                    )
            self.trace.total_send_steps += 1
            runtime.complete_step(StepResult(now))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step action {action!r}")

    def _handle_make_ready(self, event: tuple) -> None:
        self.network.make_ready(event[1])

    def _handle_fault(self, event: tuple) -> None:
        fault: FaultEvent = event[1]
        process = fault.process
        runtime = self.runtimes[process]
        if self.schedule.is_synchronous(process, self.now):
            # Good periods forbid faults on processes in their synchronous scope.
            self.skipped_fault_events.append(fault)
        elif fault.kind is FaultKind.CRASH:
            if runtime.up:
                runtime.crash()
                self.network.purge_process_state(process)
                self.trace.record_crash(process, fault.time)
        elif not runtime.up:  # FaultKind.RECOVER of a down process
            runtime.recover()
            gap = self._step_gap(process, self.now)
            if gap is not None:
                self._schedule_step(process, self.now + gap)
            self.trace.record_recovery(process, fault.time)

    def _handle_period_start(self, event: tuple) -> None:
        period: GoodPeriod = event[1]
        now = self.now
        if period.kind in (GoodPeriodKind.PI0_DOWN, GoodPeriodKind.PI_GOOD):
            outside = [p for p in range(self.n) if p not in period.pi0]
            for process in outside:
                runtime = self.runtimes[process]
                if runtime.up:
                    runtime.crash()
                    self.trace.record_crash(process, now)
                    self.network.purge_process_state(process)
            if outside:
                self.network.purge_messages_from(outside)
        for process in sorted(period.pi0):
            runtime = self.runtimes[process]
            if not runtime.up:
                runtime.recover()
                self.trace.record_recovery(process, now)
            else:
                runtime.schedule_generation += 1
            self._schedule_step(process, now + self.good_step_gap)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, until: float, stop_when: Optional[Callable[[], bool]] = None) -> SystemRunTrace:
        """Run the simulation until simulated time *until*; returns the trace.

        Events are handled in ``(time, sequence)`` order, an event at exactly
        *until* included.  *stop_when* is an optional early-stop predicate
        polled before the first event and after each one (e.g. a streaming
        predicate monitor bank's ``stop_requested``); when it fires, the run
        ends with :attr:`now` at the last handled event.  Otherwise
        :attr:`now` ends at ``max(now, until)``.  A later call resumes with
        the events still pending.
        """
        if until < self.now:
            raise ValueError(f"cannot run backwards: now={self.now}, until={until}")
        if not self._started:
            self._start()
        self._drain(until, stop_when)
        self._finalise_trace()
        return self.trace

    def _drain(self, until: float, stop_when: Optional[Callable[[], bool]]) -> None:
        if stop_when is not None and stop_when():
            return
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= until:
            time, _, event = pop(heap)
            if time > self.now:  # the clock never moves backwards
                self.now = time
            event[0](event)
            if stop_when is not None and stop_when():
                return
        if until > self.now:
            self.now = until

    def _finalise_trace(self) -> None:
        # The network owns the drop counter; the trace mirrors it.  (messages_sent
        # and the step totals are incremented live on the trace.)
        self.trace.messages_dropped = self.network.messages_dropped


__all__ = ["SystemSimulator"]
