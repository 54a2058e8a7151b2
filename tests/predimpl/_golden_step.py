"""Golden per-seed pins of the step-level event loop.

The values in ``tests/data/golden_step_fingerprints.json`` were captured
from the event loop as it stood *before* the lean-loop rewrite of
``SystemSimulator`` / ``EngineCore.run`` / ``sysmodel.Network``.  The
rewrite is specified as bit-identical per seed, so the same cells run
through :class:`~repro.predimpl.step_backend.ScalarStepBackend` must
reproduce every per-replica fingerprint, decision round and executed-round
count, and two directly built simulator runs must reproduce their
trace-level counters.  Only public APIs present on both sides of the
rewrite are used.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python -c "from tests.predimpl._golden_step import write_goldens; write_goldens()"
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from repro.algorithms import OneThirdRule
from repro.engine.rng import SeededRng
from repro.predimpl import build_down_stack
from repro.predimpl.step_backend import (
    ARBITRARY_GOOD,
    DOWN_GOOD,
    STEP_FAULT_MODELS,
    ScalarStepBackend,
    StepEnvironment,
    build_step_simulator,
    step_horizon_rounds,
)
from repro.rounds.backend import ReplicaBatch, ReplicaTask
from repro.rounds.bitmask import mask_of
from repro.sysmodel import SystemSimulator

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_step_fingerprints.json"
)

#: (label, stack kind, f, use_translation)
STACKS: Tuple[Tuple[str, str, int, bool], ...] = (
    ("down-good", DOWN_GOOD, 0, True),
    ("arbitrary-good-translated", ARBITRARY_GOOD, 1, True),
    ("arbitrary-good-plain", ARBITRARY_GOOD, 1, False),
)
SIZES = (4, 7)
SEEDS = tuple(range(5))

#: (fault model, n, seed) of the two trace-level pins.  n=7 pushes the last
#: crash-recovery incidents past the start of the good period, so the veto
#: path (``skipped_fault_events``) is exercised too.
TRACE_RUNS: Tuple[Tuple[str, int, int], ...] = (("crash-recovery", 7, 3), ("lossy", 4, 1))


def shuffled_values(n: int, seed: int) -> List[int]:
    values = [10 * (p + 1) for p in range(n)]
    SeededRng(seed).stream("values").shuffle(values)
    return values


def _scope(fault_model: str, n: int) -> range:
    # Crashed-forever processes are not required to decide.
    return range(n - 1) if fault_model == "crash-stop" else range(n)


def cell_key(label: str, fault_model: str, n: int) -> str:
    return f"{label}/{fault_model}/n={n}"


def run_cell(kind: str, f: int, use_translation: bool, fault_model: str, n: int):
    env = StepEnvironment(
        kind=kind, fault_model=fault_model, f=f, use_translation=use_translation
    )
    batch = ReplicaBatch(
        n=n,
        tasks=[
            ReplicaTask(
                seed=seed,
                algorithm=OneThirdRule(n),
                oracle=env,
                initial_values=shuffled_values(n, seed),
            )
            for seed in SEEDS
        ],
        max_rounds=step_horizon_rounds(env, n),
        scope_mask=mask_of(_scope(fault_model, n)),
        fingerprints=True,
    )
    return ScalarStepBackend().run(batch)


def compute_outcomes() -> Dict[str, List[Dict[str, Any]]]:
    """Per-seed outcome pins for every (stack, fault model, n) cell."""
    pins: Dict[str, List[Dict[str, Any]]] = {}
    for label, kind, f, use_translation in STACKS:
        for fault_model in STEP_FAULT_MODELS:
            for n in SIZES:
                pins[cell_key(label, fault_model, n)] = [
                    {
                        "seed": outcome.seed,
                        "fingerprint": outcome.fingerprint,
                        "decision_rounds": {
                            str(p): r for p, r in sorted(outcome.decision_rounds.items())
                        },
                        "rounds_executed": outcome.rounds_executed,
                    }
                    for outcome in run_cell(kind, f, use_translation, fault_model, n)
                ]
    return pins


def run_traced(fault_model: str, n: int, seed: int) -> SystemSimulator:
    """One full-horizon down-good run, built exactly as the backend builds it."""
    env = StepEnvironment(fault_model=fault_model)
    stack = build_down_stack(OneThirdRule(n), shuffled_values(n, seed), env.params())
    simulator = build_step_simulator(env, stack.programs, stack.trace, seed)
    simulator.run(until=env.bad_period_length + env.good_period_length)
    return simulator


def compute_traces() -> Dict[str, Dict[str, Any]]:
    """Trace-level counter pins for the runs of :data:`TRACE_RUNS`."""
    pins: Dict[str, Dict[str, Any]] = {}
    for fault_model, n, seed in TRACE_RUNS:
        simulator = run_traced(fault_model, n, seed)
        trace = simulator.trace
        pins[f"{fault_model}/n={n}/seed={seed}"] = {
            "skipped_fault_events": [
                [event.time, event.kind.value, event.process]
                for event in simulator.skipped_fault_events
            ],
            "messages_sent": trace.messages_sent,
            "messages_dropped": trace.messages_dropped,
            "total_send_steps": trace.total_send_steps,
            "total_receive_steps": trace.total_receive_steps,
            "crashes": trace.crashes,
            "recoveries": trace.recoveries,
            "messages_made_ready": simulator.network.messages_made_ready,
            "max_round": trace.max_round(),
        }
    return pins


def compute_goldens() -> Dict[str, Any]:
    return {"outcomes": compute_outcomes(), "traces": compute_traces()}


def load_goldens() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_goldens() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
