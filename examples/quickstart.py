#!/usr/bin/env python3
"""Quickstart: consensus in the Heard-Of model in a dozen lines.

Runs the OneThirdRule algorithm (Algorithm 1 of the paper) on the round-level
HO machine, first in a fault-free environment, then under heavy message
loss, and finally under a *composed* adversary built with the
:mod:`repro.adversaries` combinators -- a churning partition that heals into
a crash-free-but-lossy regime.  After each run the communication predicates
of Table 1 are checked on the recorded heard-of collection -- and monitored
*online* by their streaming duals, which reach the same verdicts without
the collection ever being needed.  Then a monitored run demonstrates
early stopping ("end the run once P_su held for 5 consecutive rounds"),
and a small sweep grid is run through the resumable JSONL pipeline: the
"first attempt" dies halfway, and the second call picks up exactly where
it died, predicate reports included.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.adversaries import (
    FaultFreeOracle,
    IntersectOracle,
    RandomOmissionOracle,
    RotatingPartitionOracle,
    SequenceOracle,
    StaticCrashOracle,
)
from repro.algorithms import OneThirdRule
from repro.analysis import check_consensus
from repro.core import HOMachine
from repro.predicates import MonitorBank, POtr, PRestrOtr, build_monitor
from repro.runner import JsonlSink, build_grid, run_sweep


def run(label: str, oracle, initial_values) -> None:
    algorithm = OneThirdRule(len(initial_values))
    n = len(initial_values)
    # Streaming monitors watch the predicates online, one round at a time,
    # through the engine's observer hook -- no recorded collection needed.
    bank = MonitorBank(n, [build_monitor("p_otr", n), build_monitor("p_restr_otr", n)])
    machine = HOMachine(algorithm, oracle, initial_values, observers=[bank])
    trace = machine.run_until_decision(max_rounds=50)
    verdict = check_consensus(trace, initial_values)
    reports = bank.reports()

    print(f"--- {label} ---")
    print(f"initial values : {initial_values}")
    print(f"decisions      : {trace.decisions()}")
    print(f"rounds executed: {trace.rounds_executed()}")
    print(f"P_otr holds    : {POtr().holds(trace.ho_collection)} "
          f"(monitored online: {reports['p_otr'].holds}, "
          f"first held at round {reports['p_otr'].first_hold_round})")
    print(f"P_restr_otr    : {PRestrOtr().holds(trace.ho_collection)} "
          f"(monitored online: {reports['p_restr_otr'].holds})")
    print(f"integrity      : {verdict.integrity}")
    print(f"agreement      : {verdict.agreement}")
    print(f"termination    : {verdict.termination}")
    print()


def main() -> None:
    n = 5
    initial_values = [30, 10, 20, 50, 40]

    # A fault-free environment: every process hears of everyone, every round.
    run("fault-free environment", FaultFreeOracle(n), initial_values)

    # A lossy environment: every transmission is dropped with probability 0.4.
    # Transmission faults delay the decision but never endanger safety.
    run(
        "lossy environment (40% transmission faults)",
        RandomOmissionOracle(n, loss_probability=0.4, seed=7),
        initial_values,
    )

    # A composed adversary, built with the oracle combinators: phases are
    # scripted with SequenceOracle (a churning partition, then a transient
    # crash of process 4, then calm), and IntersectOracle overlays light
    # independent loss on the whole schedule.  Every benign fault model is
    # just set algebra on heard-of sets.
    phases = SequenceOracle(
        n,
        [
            (RotatingPartitionOracle(n, blocks=2, period=3, churn=0.5, seed=1), 8),
            (StaticCrashOracle(n, {4: 1}), 4),
            (FaultFreeOracle(n), None),
        ],
    )
    composed = IntersectOracle(n, phases, RandomOmissionOracle(n, 0.1, seed=2))
    run("composed adversary (partition churn -> transient crash -> calm, +10% loss)",
        composed, initial_values)

    # An early-stopping monitored run: the bank's stop rule ends the run
    # once a monitored predicate held for 5 consecutive rounds -- no need to
    # guess a horizon, and the compact report says when the good period
    # started.
    print("--- early-stopping monitored run ---")
    oracle = SequenceOracle(
        n,
        [
            (RotatingPartitionOracle(n, blocks=2, period=3, churn=0.5, seed=3), 20),
            (FaultFreeOracle(n), None),  # the good period begins at round 21
        ],
    )
    bank = MonitorBank(
        n,
        [build_monitor("p_su", n), build_monitor("p_2otr", n)],
        stop_after_held=5,
    )
    machine = HOMachine(OneThirdRule(n), oracle, initial_values, observers=[bank])
    while machine.current_round < 200 and not machine.engine.stop_requested:
        machine.run_round()
    report = bank.reports()["p_su"]
    print(f"stopped after round {machine.current_round} of 200: "
          f"P_su held {report.longest_good_run} rounds in a row "
          f"(first space-uniform round: {report.first_good_round}, "
          f"good-round fraction: {report.satisfaction:.2f})")
    print()

    # A resumable *monitored* sweep: grids stream one JSON line per finished
    # run into a JSONL sink -- predicate reports riding along -- so a killed
    # grid restarts where it died.  Here the "first attempt" only executes
    # half the grid; the resumed call skips those cells and completes the rest.
    print("--- resumable JSONL sweep (with streamed predicate reports) ---")
    grid = build_grid(
        ["ho-round-mobile-omission"],
        ["fault-free", "crash-stop"],
        seeds=[0, 1],
        n=4,
        predicates=("p_su", "p_k", "p_2otr", "p_restr_otr"),
        run_full_horizon=True,
    )
    jsonl = Path(tempfile.mkdtemp(prefix="repro-quickstart-")) / "sweep.jsonl"
    run_sweep(grid[: len(grid) // 2], sinks=[JsonlSink(str(jsonl))])  # "killed" here
    print(f"first attempt : {len(jsonl.read_text().splitlines())}/{len(grid)} "
          f"cells persisted to {jsonl}")
    result = run_sweep(
        grid,
        sinks=[JsonlSink(str(jsonl), append=True)],
        resume_from=str(jsonl),
    )
    print(f"resumed sweep : {result.resumed} cells skipped, "
          f"{len(result) - result.resumed} executed")
    print(json.dumps(result.aggregate(), indent=2))
    print()

    # Batched replicas: the experiments the paper reports are distributions
    # over runs -- same scenario, R seeds, aggregate.  With replicas=R each
    # grid cell becomes ONE unit of work: on the batch backend the R runs
    # execute in vectorised lockstep ((R, n) estimate arrays, uint64 HO mask
    # arrays) and are bit-identical, seed by seed, to R scalar runs.  The
    # cell record carries every replica's outcome plus dispersion, so you
    # get a distribution, not a point estimate, for one cell's cost.
    print("--- batched replicas: 64 seeds per cell, one vectorised batch each ---")
    result = run_sweep(
        build_grid(["ho-classic-otr"], ["crash-stop", "lossy"], seeds=[0], n=8),
        replicas=64,
        backend="auto",
    )
    for record in result.records:
        cell = record.replicas["aggregates"]
        latency = cell["last_decision_time"]
        print(f"{record.fault_model:<11} solve_rate={cell['solve_rate']:.2f} "
              f"decision round mean={latency['mean']:.1f} "
              f"std={latency['std']:.1f} max={latency['max']:.0f} "
              f"(over {cell['replicas']} replicas)")
    print()

    # Super-batching: backend="super" goes one step further -- the WHOLE
    # grid becomes one unit of work.  Every cell (here: two algorithms x
    # two dynamic adversary families x two fault models, 32 seeds each)
    # packs its replicas into one padded row space, and a single lockstep
    # loop steps all of them, retiring rows as they decide.  The dynamic
    # families' counter-based draws make this possible: each draw is a pure
    # function of (stream key, round, process), so the array path replays
    # the scalar oracles bit for bit with no per-replica loop.  Outcomes
    # stay bit-identical to scalar runs, seed by seed.
    print("--- super-batching: the whole grid as ONE lockstep unit ---")
    result = run_sweep(
        build_grid(
            ["ho-classic-otr", "ho-round-mobile-omission", "ho-round-bursty-loss"],
            ["fault-free", "crash-stop"],
            seeds=[0],
            n=8,
        ),
        replicas=32,
        backend="super",
    )
    for record in result.records:
        cell = record.replicas["aggregates"]
        print(f"{record.scenario:<26} {record.fault_model:<11} "
              f"backend={record.replicas['backend']:<7} "
              f"solve_rate={cell['solve_rate']:.2f} "
              f"(over {cell['replicas']} replicas)")
    print()

    # The compiled tier: backend="compiled" fuses each cell's WHOLE round
    # loop into one nopython call per word chunk -- numba JIT-compiles the
    # chunk cores when it is importable (the "compiled" extra), and
    # without numba every cell degrades to the numpy batch path with the
    # reason recorded on the cell record.  Outcomes
    # are bit-identical on every tier, so which one executed is purely a
    # performance fact, not a scientific one.
    print("--- the compiled tier: JIT'd round loops (or a recorded fallback) ---")
    from repro._optional import have_numba

    result = run_sweep(
        build_grid(
            ["ho-classic-otr", "ho-round-bursty-loss"], ["fault-free"], seeds=[0], n=8
        ),
        replicas=32,
        backend="compiled",
    )
    print(f"numba importable: {have_numba()}")
    for record in result.records:
        cell = record.replicas["aggregates"]
        print(f"{record.scenario:<26} backend={record.replicas['backend']} "
              f"solve_rate={cell['solve_rate']:.2f} "
              f"(over {cell['replicas']} replicas)")


if __name__ == "__main__":
    main()
