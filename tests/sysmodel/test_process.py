"""Unit tests for step programs, stable storage and the process runtime."""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.sysmodel.network import Envelope
from repro.sysmodel.params import SynchronyParams
from repro.sysmodel.periods import PeriodSchedule
from repro.sysmodel.process import (
    ProcessRuntime,
    ReceiveStep,
    SendStep,
    StableStorage,
    StepProgram,
    StepResult,
)
from repro.sysmodel.simulator import SystemSimulator
from repro.sysmodel.trace import SystemRunTrace


class PingProgram(StepProgram):
    """A tiny test program: alternately send a counter and receive."""

    def __init__(self, process_id=0, n=2):
        super().__init__(process_id, n)
        self.received_payloads = []

    def program(self):
        counter = self.stable_storage.load("counter", 0)
        while True:
            counter += 1
            self.stable_storage.store("counter", counter)
            yield SendStep(payload=("ping", counter))
            result = yield ReceiveStep()
            if result.envelope is not None:
                self.received_payloads.append(result.envelope.payload)

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        return buffered[0] if buffered else None


class CountingProgram(StepProgram):
    """Alternately send and receive, counting the steps handed back."""

    def program(self):
        self.sends = self.receives = 0
        while True:
            yield SendStep(payload="ping")
            self.sends += 1
            yield ReceiveStep()
            self.receives += 1

    def select_message(self, buffered: Sequence[Envelope]) -> Optional[Envelope]:
        return buffered[0] if buffered else None


class TerminatingProgram(StepProgram):
    """A program that finishes after one send (exercise generator exhaustion)."""

    def program(self):
        yield SendStep(payload="only")

    def select_message(self, buffered):
        return None


class TestStableStorage:
    def test_store_and_load(self):
        storage = StableStorage()
        storage.store("x", 41)
        assert storage.load("x") == 41
        assert storage.load("missing", "default") == "default"
        assert "x" in storage
        assert storage.write_count == 1
        assert storage.read_count == 2


class TestProcessRuntime:
    def test_boot_produces_first_action(self):
        runtime = ProcessRuntime(PingProgram())
        runtime.boot()
        assert isinstance(runtime.next_action(), SendStep)

    def test_steps_alternate_according_to_program(self):
        runtime = ProcessRuntime(PingProgram())
        runtime.boot()
        assert isinstance(runtime.next_action(), SendStep)
        runtime.complete_step(StepResult(time=1.0))
        assert isinstance(runtime.next_action(), ReceiveStep)
        runtime.complete_step(StepResult(time=2.0, envelope=None))
        assert isinstance(runtime.next_action(), SendStep)

    def test_the_trace_counts_every_step(self):
        """The run's trace counts every step the programs were handed back."""
        n = 2
        programs = [CountingProgram(p, n) for p in range(n)]
        trace = SystemRunTrace(n=n)
        SystemSimulator(
            programs=programs,
            params=SynchronyParams(phi=1.0, delta=2.0),
            schedule=PeriodSchedule.always_good(n),
            trace=trace,
        ).run(until=20.0)
        assert trace.total_send_steps == sum(p.sends for p in programs) > 0
        assert trace.total_receive_steps == sum(p.receives for p in programs) > 0

    def test_received_envelope_reaches_the_program(self):
        program = PingProgram()
        runtime = ProcessRuntime(program)
        runtime.boot()
        runtime.complete_step(StepResult(time=1.0))
        envelope = Envelope(sender=1, receiver=0, payload="pong", send_time=0.5, sequence=0)
        runtime.complete_step(StepResult(time=2.0, envelope=envelope))
        assert program.received_payloads == ["pong"]

    def test_crash_discards_volatile_state_and_recovery_restarts(self):
        program = PingProgram()
        runtime = ProcessRuntime(program)
        runtime.boot()
        runtime.complete_step(StepResult(time=1.0))  # send #1, counter=1
        runtime.complete_step(StepResult(time=2.0))  # empty receive
        runtime.complete_step(StepResult(time=3.0))  # send #2, counter=2
        runtime.crash()
        assert not runtime.up
        assert runtime.next_action() is None
        runtime.recover()
        assert runtime.up
        # The counter survived on stable storage: the next send uses counter=3.
        assert isinstance(runtime.next_action(), SendStep)
        runtime.complete_step(StepResult(time=5.0))
        assert program.stable_storage.load("counter") == 3
        assert runtime.stats.crashes == 1
        assert runtime.stats.recoveries == 1

    def test_crash_and_recover_are_idempotent(self):
        runtime = ProcessRuntime(PingProgram())
        runtime.boot()
        runtime.crash()
        runtime.crash()
        assert runtime.stats.crashes == 1
        runtime.recover()
        runtime.recover()
        assert runtime.stats.recoveries == 1

    def test_schedule_generation_bumped_on_crash_and_recovery(self):
        runtime = ProcessRuntime(PingProgram())
        runtime.boot()
        generation = runtime.schedule_generation
        runtime.crash()
        assert runtime.schedule_generation == generation + 1
        runtime.recover()
        assert runtime.schedule_generation == generation + 2

    def test_terminating_program_stops_producing_actions(self):
        runtime = ProcessRuntime(TerminatingProgram(0, 1))
        runtime.boot()
        assert isinstance(runtime.next_action(), SendStep)
        runtime.complete_step(StepResult(time=1.0))
        assert runtime.next_action() is None

    def test_completing_steps_while_down_is_a_noop(self):
        runtime = ProcessRuntime(PingProgram())
        runtime.boot()
        runtime.crash()
        runtime.complete_step(StepResult(time=1.0))
        # The program did not advance: only boot's store of counter=1 happened.
        assert runtime.program.stable_storage.write_count == 1
        assert runtime.next_action() is None
