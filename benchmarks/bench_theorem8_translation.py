#!/usr/bin/env python3
"""Step-path throughput benchmark: the step backends vs the scalar simulator.

Runs the crash-recovery translation stack's step cells -- OneThirdRule over
the down-good predicate stack (Theorems 3-5) simulated at *step* level with
seed-shuffled initial values -- as R lockstep replicas on both step-path
execution backends and reports *replica-round throughput*.  The scalar
backend (``step-scalar``) pays the full ``SystemSimulator`` event loop per
replica: every send/receive/timeout step of every process.  The batch
backend (``step-batch``) lowers the fault-free down-good cell onto the
vectorized round engine, so the whole cell costs one array program per
round.  The scalar side is timed on a small replica subset and normalised
per replica; the batched side runs the full cell.  Before a row's timing
is accepted, the batched outcomes on the shared seed prefix must equal the
scalar outcomes exactly (decisions, rounds, message counts, per-round
fingerprints).

A second experiment times the Theorem 8 translation cell (Algorithm 4:
``f+1`` kernel rounds emulate one P_su macro-round) on the round-level
``scalar``/``batch`` backends via the batched translation kernel, and
re-checks the theorem's claims on the outcomes: every pi0 process decides
(the default f keeps ``3(n - f) > 2n``), at the macro-round cadence, with
agreement inside every replica.

Emits ``BENCH_step.json`` (schema ``repro-bench-step/1``) so CI can track
the trajectory::

    python benchmarks/bench_theorem8_translation.py --sizes 16 64 --replica-counts 64 256
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
from repro.rounds.backend import ExecutionBackend, ReplicaBatch, get_backend  # noqa: E402
from repro.workloads.theorems import (  # noqa: E402
    build_step_batch,
    build_translation_batch,
)

SCHEMA = "repro-bench-step/1"

FAULT_MODEL = "fault-free"


def subset_batch(batch: ReplicaBatch, replicas: int) -> ReplicaBatch:
    """The same cell restricted to its first ``replicas`` seeds."""
    return ReplicaBatch(
        n=batch.n,
        tasks=batch.tasks[:replicas],
        max_rounds=batch.max_rounds,
        scope_mask=batch.scope_mask,
        run_full_horizon=batch.run_full_horizon,
        monitor_spec=batch.monitor_spec,
        fingerprints=batch.fingerprints,
    )


def time_backend(backend: ExecutionBackend, build, repeats: int):
    best = float("inf")
    outcomes = None
    for _ in range(repeats):
        batch = build()
        started = time.perf_counter()
        outcomes = backend.run(batch)
        best = min(best, time.perf_counter() - started)
    return best, outcomes


def time_cell(
    scalar_name: str,
    batch_name: str,
    build,
    replicas: int,
    scalar_replicas: int,
    repeats: int,
):
    """Time one cell on both backends; pin the shared seed prefix.

    The scalar side runs only the first ``scalar_replicas`` replicas (the
    full cell would dominate CI wall clock) and is normalised per replica;
    the batched outcomes on those replicas must match it bit for bit --
    the same golden-fingerprint pin the backend tests enforce.
    """
    scalar_replicas = min(scalar_replicas, replicas)
    scalar_seconds, scalar_outcomes = time_backend(
        get_backend(scalar_name), lambda: subset_batch(build(), scalar_replicas), repeats
    )
    batch_seconds, batch_outcomes = time_backend(get_backend(batch_name), build, repeats)
    assert batch_outcomes[:scalar_replicas] == scalar_outcomes, (
        f"backend divergence on the shared seed prefix ({scalar_name} vs {batch_name})"
    )
    rounds = build().max_rounds
    scalar_throughput = scalar_replicas * rounds / scalar_seconds
    batch_throughput = replicas * rounds / batch_seconds
    return {
        "replicas": replicas,
        "scalar_replicas": scalar_replicas,
        "rounds": rounds,
        "scalar_seconds": round(scalar_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "scalar_replica_rounds_per_second": round(scalar_throughput, 1),
        "batch_replica_rounds_per_second": round(batch_throughput, 1),
        "speedup": round(batch_throughput / scalar_throughput, 2),
    }, batch_outcomes


def benchmark_step(
    sizes: List[int],
    replica_counts: List[int],
    rounds: int,
    scalar_replicas: int,
    repeats: int,
) -> List[Dict[str, Any]]:
    results = []
    for n in sizes:
        for replicas in replica_counts:
            def build(n=n, replicas=replicas):
                return build_step_batch(
                    FAULT_MODEL,
                    n=n,
                    seeds=range(1, replicas + 1),
                    rounds=rounds,
                    run_full_horizon=True,
                ).batch

            row, _ = time_cell(
                "step-scalar", "step-batch", build, replicas, scalar_replicas, repeats
            )
            row = {"n": n, **row}
            results.append(row)
            print(
                f"step        n={n:<4} R={replicas:<5} "
                f"scalar: {row['scalar_replica_rounds_per_second']:10.1f} rr/s   "
                f"batch: {row['batch_replica_rounds_per_second']:10.1f} rr/s   "
                f"speedup: {row['speedup']:8.2f}x"
            )
    return results


def benchmark_translation(
    sizes: List[int],
    replicas: int,
    f: int,
    macro_rounds: int,
    scalar_replicas: int,
    repeats: int,
) -> List[Dict[str, Any]]:
    results = []
    rounds = macro_rounds * (f + 1)
    for n in sizes:
        def build(n=n):
            return build_translation_batch(
                FAULT_MODEL,
                n=n,
                seeds=range(1, replicas + 1),
                f=f,
                rounds=rounds,
                run_full_horizon=True,
            ).batch

        row, outcomes = time_cell(
            "scalar", "batch", build, replicas, scalar_replicas, repeats
        )
        # Theorem 8, re-checked on every replica of the timed cell: all of
        # pi0 decides (f keeps 3(n - f) > 2n), in agreement, at the
        # macro-round cadence of f+1 kernel rounds.
        pi0 = set(range(n - f))
        for outcome in outcomes:
            assert pi0 <= set(outcome.decisions), outcome.seed
            assert len({outcome.decisions[p] for p in pi0}) == 1, outcome.seed
            assert all(
                outcome.decision_rounds[p] % (f + 1) == 0 for p in pi0
            ), outcome.seed
        row = {"n": n, "f": f, **row}
        results.append(row)
        print(
            f"translation n={n:<4} R={replicas:<5} "
            f"scalar: {row['scalar_replica_rounds_per_second']:10.1f} rr/s   "
            f"batch: {row['batch_replica_rounds_per_second']:10.1f} rr/s   "
            f"speedup: {row['speedup']:8.2f}x"
        )
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", nargs="+", type=int, default=[16, 64],
        help="system sizes to sweep (default: 16 64)",
    )
    parser.add_argument(
        "--replica-counts", nargs="+", type=int, default=[64, 256],
        help="replica counts per step cell (default: 64 256)",
    )
    parser.add_argument(
        "--rounds", type=int, default=8,
        help="rounds per step replica, full horizon (default: 8)",
    )
    parser.add_argument(
        "--scalar-replicas", type=int, default=2,
        help="replica subset timed on the scalar backends (default: 2)",
    )
    parser.add_argument(
        "--translation-replicas", type=int, default=64,
        help="replicas of the Theorem 8 translation cells (default: 64)",
    )
    parser.add_argument(
        "--translation-f", type=int, default=1,
        help="resilience of the translation cells (default: 1)",
    )
    parser.add_argument(
        "--macro-rounds", type=int, default=6,
        help="macro-rounds per translation replica (default: 6)",
    )
    parser.add_argument(
        "--skip-translation", action="store_true",
        help="skip the Theorem 8 translation-cell experiment",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats, best-of (default: 2)"
    )
    parser.add_argument(
        "--json", default="BENCH_step.json",
        help="output path (default: BENCH_step.json)",
    )
    args = parser.parse_args(argv)

    if not have_numpy():
        print(
            "warning: numpy unavailable -- the batched backends will run "
            "their scalar fallbacks and speedups will be ~1x",
            file=sys.stderr,
        )
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "numpy": have_numpy(),
        "environment": {
            "step_cell": "down-good fault-free",
            "algorithm": "one-third-rule",
            "translation": "kernel-to-uniform (Algorithm 4)",
        },
        "repeats": args.repeats,
        "results": benchmark_step(
            args.sizes, args.replica_counts, args.rounds,
            args.scalar_replicas, args.repeats,
        ),
    }
    if not args.skip_translation:
        payload["translation"] = benchmark_translation(
            args.sizes, args.translation_replicas, args.translation_f,
            args.macro_rounds, args.scalar_replicas, args.repeats,
        )
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
