#!/usr/bin/env python3
"""Replica-throughput benchmark: the batch backend vs the scalar loop.

Runs the same oracle-driven cell -- OneThirdRule under the classic
crash-stop environment with seed-shuffled initial values -- as R seeded
replicas on both execution backends and reports *replica-round throughput*
(replica-rounds executed per second).  The scalar loop pays the full Python
interpreter cost once per (replica, process, round); the batch backend pays
it once per round, so the speedup is interpreter-overhead elimination --
data parallelism that works even on a single core, which is exactly what
the sweep harness needs on one-core hosts where process pools buy nothing.

A second experiment measures *whole-grid wall clock*: a realistic sweep
grid -- classic cells plus all four dynamic adversary families, each as an
R-replica cell -- executed as B scalar cells versus ONE cross-cell
super-batch (`repro.batch.SuperBatchBackend`).  The counter-based oracle
streams make the dynamic families vectorisable with no per-replica loop,
so the grid speedup at n=64 is far larger than the per-cell figure; the
figures land under the ``grid`` key of the same JSON.

Emits ``BENCH_batch.json`` (schema ``repro-bench-batch/2``) next to
BENCH_rounds/BENCH_sweep/BENCH_predicates so CI can track the trajectory::

    python benchmarks/bench_batch_scaling.py --sizes 16 64 128 --replica-counts 64 256

Both backends are verified against each other (decisions and decision
rounds per replica; for the grid, the full flattened outcome dicts)
before a cell's timing is accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro._optional import have_numpy  # noqa: E402
from repro.rounds.backend import ReplicaBatch, get_backend  # noqa: E402
from repro.workloads.batched import build_classic_batch  # noqa: E402

SCHEMA = "repro-bench-batch/2"

FAULT_MODEL = "crash-stop"

#: The whole-grid experiment: classic cells plus all four dynamic families.
#: Every cell must super-batch (no per-cell fallback, no per-replica oracle
#: loop) -- the bench asserts it.
GRID_CELLS = [
    ("ho-classic-otr", "fault-free"),
    ("ho-classic-otr", "crash-stop"),
    ("ho-classic-otr", "crash-recovery"),
    ("ho-round-mobile-omission", "fault-free"),
    ("ho-round-mobile-omission", "crash-stop"),
    ("ho-round-rotating-partition", "fault-free"),
    ("ho-round-bursty-loss", "fault-free"),
    ("ho-round-bursty-loss", "crash-stop"),
    ("ho-round-eventually-stable-coordinator", "fault-free"),
]


def build_batch(n: int, replicas: int, rounds: int, base_seed: int) -> ReplicaBatch:
    """One ho-classic crash-stop cell: R replicas with seed-shuffled values.

    Built by the ``ho-classic-otr`` scenario's own CellPlan builder, so the
    bench times exactly the cell the CI acceptance gate certifies.
    ``run_full_horizon`` keeps every replica executing all ``rounds`` rounds,
    so both backends do identical amounts of work and throughput numbers
    compare rounds, not early-decision luck.
    """
    seeds = range(base_seed, base_seed + replicas)
    return build_classic_batch(
        FAULT_MODEL, n=n, seeds=seeds, algorithm="otr", rounds=rounds, run_full_horizon=True
    ).batch


def time_backend(name: str, n: int, replicas: int, rounds: int, repeats: int):
    backend = get_backend(name)
    best = float("inf")
    outcomes = None
    for _ in range(repeats):
        batch = build_batch(n, replicas, rounds, base_seed=1)
        started = time.perf_counter()
        outcomes = backend.run(batch)
        best = min(best, time.perf_counter() - started)
    return best, outcomes


def benchmark(
    sizes: List[int], replica_counts: List[int], rounds: int, repeats: int
) -> Dict[str, Any]:
    results = []
    for n in sizes:
        for replicas in replica_counts:
            scalar_seconds, scalar_outcomes = time_backend(
                "scalar", n, replicas, rounds, repeats
            )
            batch_seconds, batch_outcomes = time_backend(
                "batch", n, replicas, rounds, repeats
            )
            assert [
                (o.seed, sorted(o.decisions.items()), sorted(o.decision_rounds.items()))
                for o in scalar_outcomes
            ] == [
                (o.seed, sorted(o.decisions.items()), sorted(o.decision_rounds.items()))
                for o in batch_outcomes
            ], f"backend divergence at n={n}, R={replicas}"
            replica_rounds = replicas * rounds
            speedup = scalar_seconds / batch_seconds
            results.append(
                {
                    "n": n,
                    "replicas": replicas,
                    "rounds": rounds,
                    "scalar_seconds": round(scalar_seconds, 6),
                    "batch_seconds": round(batch_seconds, 6),
                    "scalar_replica_rounds_per_second": round(
                        replica_rounds / scalar_seconds, 1
                    ),
                    "batch_replica_rounds_per_second": round(
                        replica_rounds / batch_seconds, 1
                    ),
                    "speedup": round(speedup, 2),
                }
            )
            print(
                f"n={n:<4} R={replicas:<5} scalar: {scalar_seconds * 1e3:9.1f}ms   "
                f"batch: {batch_seconds * 1e3:8.1f}ms   speedup: {speedup:6.2f}x"
            )
    return {
        "schema": SCHEMA,
        "numpy": have_numpy(),
        "environment": {"oracle": FAULT_MODEL, "algorithm": "one-third-rule"},
        "repeats": repeats,
        "results": results,
    }


def build_grid_plans(n: int, replicas: int, rounds: int):
    """One CellPlan per GRID_CELLS entry, through the sweep registry --
    exactly the cells ``run_sweep(backend="super")`` would pack."""
    from repro.runner.registry import REGISTRY

    seeds = list(range(1, replicas + 1))
    plans = []
    for scenario, fault_model in GRID_CELLS:
        builder = REGISTRY.batch_builder(scenario)
        assert builder is not None, f"{scenario} has no CellPlan builder"
        plans.append(builder(fault_model, n=n, seeds=seeds, rounds=rounds))
    return plans


def benchmark_grid(
    n: int, replicas: int, rounds: int, repeats: int
) -> Dict[str, Any]:
    """Whole-grid wall clock: B scalar cells vs ONE cross-cell super-batch."""
    from repro.adversaries.batch import PerReplicaBatchOracle
    from repro.batch import SuperBatchBackend

    scalar = get_backend("scalar")
    scalar_seconds = float("inf")
    scalar_outcomes = None
    for _ in range(repeats):
        plans = build_grid_plans(n, replicas, rounds)
        started = time.perf_counter()
        outcomes = [scalar.run(plan.batch) for plan in plans]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - started)
        scalar_outcomes = [
            plan.finalize(cell) for plan, cell in zip(plans, outcomes)
        ]

    super_seconds = float("inf")
    super_outcomes = None
    for _ in range(repeats):
        backend = SuperBatchBackend()
        plans = build_grid_plans(n, replicas, rounds)
        started = time.perf_counter()
        results = backend.run_batches([plan.batch for plan in plans])
        super_seconds = min(super_seconds, time.perf_counter() - started)
        assert backend.last_fallback_reasons == {}, backend.last_fallback_reasons
        super_outcomes = [
            plan.finalize(cell) for plan, cell in zip(plans, results)
        ]

    assert super_outcomes == scalar_outcomes, "grid backend divergence"
    # The acceptance criterion behind the speedup: no oracle degraded to the
    # opaque per-replica query loop anywhere in the grid.
    probe = build_grid_plans(n, replicas, rounds)
    from repro.adversaries.batch import vectorize_oracles

    for (scenario, fault_model), plan in zip(GRID_CELLS, probe):
        batch_oracle = vectorize_oracles(
            [task.oracle for task in plan.batch.tasks], plan.batch.replicas
        )
        assert not isinstance(batch_oracle, PerReplicaBatchOracle), (
            scenario,
            fault_model,
        )

    speedup = scalar_seconds / super_seconds
    print(
        f"grid n={n:<4} B={len(GRID_CELLS)} cells x R={replicas}   "
        f"scalar: {scalar_seconds * 1e3:9.1f}ms   "
        f"super: {super_seconds * 1e3:8.1f}ms   speedup: {speedup:6.2f}x"
    )
    return {
        "n": n,
        "cells": len(GRID_CELLS),
        "grid": [list(cell) for cell in GRID_CELLS],
        "replicas_per_cell": replicas,
        "rounds": rounds,
        "scalar_seconds": round(scalar_seconds, 6),
        "super_seconds": round(super_seconds, 6),
        "speedup": round(speedup, 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", nargs="+", type=int, default=[16, 64, 128],
        help="system sizes to sweep (default: 16 64 128)",
    )
    parser.add_argument(
        "--replica-counts", nargs="+", type=int, default=[16, 64, 256],
        help="replica counts per cell (default: 16 64 256)",
    )
    parser.add_argument(
        "--rounds", type=int, default=30,
        help="rounds per replica, full horizon (default: 30)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of (default: 3)"
    )
    parser.add_argument(
        "--grid-n", type=int, default=64,
        help="system size of the whole-grid experiment (default: 64)",
    )
    parser.add_argument(
        "--grid-replicas", type=int, default=32,
        help="replicas per grid cell (default: 32)",
    )
    parser.add_argument(
        "--grid-rounds", type=int, default=30,
        help="round horizon of the grid cells (default: 30)",
    )
    parser.add_argument(
        "--skip-grid", action="store_true",
        help="skip the whole-grid scalar-vs-super experiment",
    )
    parser.add_argument(
        "--json", default="BENCH_batch.json",
        help="output path (default: BENCH_batch.json)",
    )
    args = parser.parse_args(argv)

    if not have_numpy():
        print(
            "warning: numpy unavailable -- the batch backend will run its "
            "scalar fallback and speedups will be ~1x",
            file=sys.stderr,
        )
    payload = benchmark(args.sizes, args.replica_counts, args.rounds, args.repeats)
    if not args.skip_grid:
        payload["grid"] = benchmark_grid(
            args.grid_n, args.grid_replicas, args.grid_rounds, args.repeats
        )
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
