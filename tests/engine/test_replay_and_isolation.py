"""Replay guarantees of the step-level simulator.

Two properties the simulator enforces by construction:

* *byte-identical replay*: the same seed yields byte-identical traces;
* *sub-stream isolation*: randomness is drawn from named ``SeededRng`` sub-streams,
  so changing the channel-noise model does not perturb step or fault timing
  (and vice versa).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.algorithms import OneThirdRule
from repro.predimpl import build_down_stack
from repro.sysmodel import (
    BadPeriodNetwork,
    BadPeriodProcessBehavior,
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemSimulator,
)
from repro.sysmodel.trace import SystemRunTrace


# --------------------------------------------------------------------------- #
# helpers: a canonical byte serialisation of a step-level trace
# --------------------------------------------------------------------------- #


def system_trace_bytes(trace: SystemRunTrace) -> bytes:
    """A canonical byte serialisation of a step-level run trace."""
    payload = {
        "n": trace.n,
        "ho": {
            f"{p}:{r}": sorted(trace.ho_collection.ho(p, r))
            for p in range(trace.n)
            for r in range(1, trace.max_round() + 1)
            if trace.ho_collection.has_record(p, r)
        },
        "transition_times": {
            f"{p}:{r}": t for (p, r), t in sorted(trace.transition_times.items())
        },
        "decisions": {
            str(p): [record.value, record.round, record.time]
            for p, record in sorted(trace.decisions.items())
        },
        "counters": [
            trace.messages_sent,
            trace.messages_dropped,
            trace.total_send_steps,
            trace.total_receive_steps,
            trace.crashes,
            trace.recoveries,
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def run_system(seed: int, bad_network: Optional[BadPeriodNetwork] = None):
    n = 4
    params = SynchronyParams(phi=1.0, delta=2.0)
    stack = build_down_stack(OneThirdRule(n), [10, 20, 30, 40], params)
    schedule = PeriodSchedule.single_good_period(
        n, start=60.0, length=200.0, kind=GoodPeriodKind.PI0_DOWN
    )
    simulator = SystemSimulator(
        stack.programs,
        params,
        schedule,
        seed=seed,
        trace=stack.trace,
        fault_schedule=FaultSchedule.crash_recovery([(1, 10.0, 30.0)]),
        bad_network=(
            bad_network
            if bad_network is not None
            else BadPeriodNetwork(loss_probability=0.5, min_delay=1.0, max_delay=30.0)
        ),
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=5.0, stall_probability=0.2
        ),
    )
    simulator.run(until=260.0)
    return simulator, stack.trace


# --------------------------------------------------------------------------- #
# byte-identical replay
# --------------------------------------------------------------------------- #


class TestByteIdenticalReplay:
    def test_system_simulator_same_seed_same_bytes(self):
        _, trace_a = run_system(seed=11)
        _, trace_b = run_system(seed=11)
        assert system_trace_bytes(trace_a) == system_trace_bytes(trace_b)

    def test_system_simulator_different_seed_different_bytes(self):
        _, trace_a = run_system(seed=11)
        _, trace_b = run_system(seed=12)
        assert system_trace_bytes(trace_a) != system_trace_bytes(trace_b)

# --------------------------------------------------------------------------- #
# RNG sub-stream isolation
# --------------------------------------------------------------------------- #


class AlternatingProgram:
    """A step program with a message-independent action sequence.

    Sends and receives strictly alternate, so the times at which its steps
    run depend only on the simulator's ``steps`` sub-stream and the fault
    schedule -- never on what the network delivered.  Used to observe step
    timing in isolation.
    """

    def __init__(self, process_id, n):
        from repro.sysmodel.process import StepProgram

        # Composition instead of a module-level subclass keeps this helper
        # self-contained; build the concrete subclass here.
        outer = self

        class _Program(StepProgram):
            def program(self):
                from repro.sysmodel.process import ReceiveStep, SendStep

                counter = 0
                while True:
                    counter += 1
                    result = yield SendStep(payload=(self.process_id, counter))
                    outer.step_times.append(result.time)
                    result = yield ReceiveStep()
                    outer.step_times.append(result.time)
                    if result.envelope is not None:
                        outer.received += 1

            def select_message(self, buffered):
                return buffered[0] if buffered else None

        self.step_times = []
        self.received = 0
        self.program = _Program(process_id, n)


def run_alternating(seed: int, bad_network: BadPeriodNetwork):
    n = 3
    params = SynchronyParams(phi=1.0, delta=2.0)
    holders = [AlternatingProgram(p, n) for p in range(n)]
    schedule = PeriodSchedule(n=n, good_periods=[])  # one endless bad period
    simulator = SystemSimulator(
        [holder.program for holder in holders],
        params,
        schedule,
        seed=seed,
        fault_schedule=FaultSchedule.crash_recovery([(1, 15.0, 35.0)]),
        bad_network=bad_network,
        bad_process_behavior=BadPeriodProcessBehavior(
            min_step_gap=1.0, max_step_gap=5.0, stall_probability=0.2
        ),
    )
    trace = simulator.run(until=120.0)
    return simulator, trace, holders


class TestSubStreamIsolation:
    def test_channel_noise_does_not_perturb_step_and_fault_timing(self):
        """Changing the bad-period network leaves process step times untouched.

        Step gaps come from the simulator's ``steps`` sub-stream, link delay and
        loss from ``network``: making the network ten times noisier must not
        move a single step (or fault application) in time.
        """
        quiet = BadPeriodNetwork(loss_probability=0.0, min_delay=1.0, max_delay=2.0)
        noisy = BadPeriodNetwork(loss_probability=0.9, min_delay=5.0, max_delay=60.0)
        _, trace_quiet, holders_quiet = run_alternating(seed=7, bad_network=quiet)
        _, trace_noisy, holders_noisy = run_alternating(seed=7, bad_network=noisy)
        # The runs genuinely differ (different message fates)...
        assert trace_quiet.messages_dropped != trace_noisy.messages_dropped
        assert [h.received for h in holders_quiet] != [h.received for h in holders_noisy]
        # ...but fault accounting and step timing are identical.
        assert trace_quiet.crashes == trace_noisy.crashes
        assert trace_quiet.recoveries == trace_noisy.recoveries
        assert [h.step_times for h in holders_quiet] == [
            h.step_times for h in holders_noisy
        ]
