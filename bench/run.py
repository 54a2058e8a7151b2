"""The repo's one benchmark: four CLI sweep workloads, measured end to end and per layer.

    python3 bench/run.py                       # all workloads, both passes, bench/out/result.json
    python3 bench/run.py --workload step-grid  # one workload, both passes
    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1   # one driver run
    python3 bench/run.py --self-check          # two full sets must agree within the bounds
    python3 bench/run.py --regen-golden        # re-pin bench/golden.json (scalar backend, slow)

Every mode prints each metric by name and unit.  A driver run ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Metric names, units, bounds and the default run length come from
``BENCHMARK.json``; see bench/README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[0:1] = [ROOT]

from bench.workloads import GOLDEN_PATH, WORKLOADS, load_golden, pinned_digest  # noqa: E402

WORKER = os.path.join(BENCH, "worker.py")
# np.matmul on float operands (OneThirdRule, translation kernels) is otherwise
# threaded across both cores by OpenBLAS, and the clock measures the scheduler.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}
SETUP_REPEATS = 9

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)
END_TO_END = {entry["name"]: entry for entry in MANIFEST["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in MANIFEST["per_layer"]}


def run_child(role: str, workload: str, seed: int, seconds: float, out: str,
              timeout: float) -> Tuple[float, Dict[str, Any]]:
    """One fresh interpreter; returns (wall from spawn to exit, its JSON report)."""
    command = [sys.executable, WORKER, "--role", role, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--out", out]
    started = time.perf_counter()
    done = subprocess.run(command, env={**os.environ, **THREAD_PINS}, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"bench worker ({role}, {workload}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else {})


def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """median / quartiles / best / n of one timing's samples.

    The median is the compared value.  The host alternates between a fast
    and a ~20 % slower state, so the best sample depends on whether a fast
    spell happened to cover one whole sweep; sized on this box, the median of
    ten sweeps spread no more between runs than their minimum did (see
    bench/README.md), and it is what the driver's rules ask for.
    """
    p25, median, p75 = statistics.quantiles(samples, n=4)
    return {"median": median, "p25": p25, "p75": p75, "best": min(samples), "n": len(samples)}


def verdict(sweeps: Sequence[Mapping[str, Any]], pinned: Optional[str]) -> Dict[str, Any]:
    """Attempted and failed replicas over *sweeps*.

    A replica fails if its cell or outcome carries an error; a sweep whose
    exit code is non-zero, whose aggregates digest differs from the pinned
    one (from the first sweep's, for an unpinned seed) or which reports an
    unsafe run fails whole.
    """
    reference = pinned or sweeps[0]["digest"]
    attempted = failed = 0
    for item in sweeps:
        attempted += item["replicas"]
        whole = item["exit"] != 0 or item["digest"] != reference or not item["all_safe"]
        failed += item["replicas"] if whole else item["failed"]
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "digest": sweeps[0]["digest"], "pinned": pinned is not None}


def measure_end_to_end(workload: str, seed: int, seconds: float, out: str) -> Dict[str, Any]:
    timeout = 4 * seconds + 60
    setups = [run_child("setup", workload, seed, seconds, out, timeout)[0]
              for _ in range(SETUP_REPEATS)]
    _, report = run_child("timed", workload, seed, seconds, out, timeout)
    sweeps = report["sweeps"]
    wall = summarise([item["wall_s"] for item in sweeps])
    setup = summarise(setups)
    return {
        **verdict(sweeps, pinned_digest(workload, seed)),
        "metrics": {
            "sweep_wall_s": wall["median"],
            "sim_messages_per_s": sweeps[0]["messages"] / wall["median"],
            "setup_s": setup["median"],
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "samples": {"sweep_wall_s": wall, "setup_s": setup},
        "sim": {key: sweeps[0][key] for key in ("messages", "replicas", "cells")},
        "tiers": sweeps[-1]["tiers"],
        "argv": report["argv"],
        "env": report["env"],
    }


def measure_per_layer(workload: str, seed: int, seconds: float, out: str) -> Dict[str, Any]:
    _, report = run_child("traced", workload, seed, seconds, out, 4 * seconds + 60)
    result = verdict(report["sweeps"] + report["traced_sweeps"], pinned_digest(workload, seed))
    result["correct"] = result["correct"] and report["counts_repeat"]
    return {
        **result,
        "metrics": report["layers"],
        "traced_wall_s": report["traced_wall_s"],
        "traced_passes": len(report["traced_sweeps"]),
        "trace_file": os.path.relpath(report["trace_file"], ROOT),
        "env": report["env"],
    }


def print_metrics(title: str, result: Mapping[str, Any], table: Mapping[str, Mapping[str, str]]) -> None:
    print(f"{title}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} digest={result['digest'][:12]}"
          f"{'' if result['pinned'] else ' (seed not pinned: repeats compared)'}")
    if "traced_wall_s" in result:
        print(f"  traced wall {result['traced_wall_s']:.6f} s, median of {result['traced_passes']} "
              f"traced passes; spans in {result['trace_file']}")
    for name in table:
        value = result["metrics"][name]
        line = f"  {name:<40} {value:>16.6f} {table[name]['unit']}"
        spread = result.get("samples", {}).get(name)
        if spread:
            line += (f"   median of {spread['n']}; p25 {spread['p25']:.4f}"
                     f" p75 {spread['p75']:.4f} best {spread['best']:.4f}")
        print(line)
    sys.stdout.flush()


def contract_line(result: Mapping[str, Any], table: Mapping[str, Mapping[str, str]]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": table[name]["unit"]}
                    for name in table},
    })


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def full_set(names: Sequence[str], seed: int, seconds: float, out: str) -> Dict[str, Any]:
    """Both passes of every named workload, as one result document."""
    document: Dict[str, Any] = {
        "schema": "repro-bench/1",
        "commit": git_commit(),
        "seed": seed,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in names:
        end_to_end = measure_end_to_end(name, seed, seconds, out)
        print_metrics(f"{name} end to end", end_to_end, END_TO_END)
        per_layer = measure_per_layer(name, seed, seconds, out)
        print_metrics(f"{name} per layer", per_layer, PER_LAYER)
        document["environment"] = end_to_end.pop("env")
        del per_layer["env"]
        document["workloads"][name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    return document


def all_correct(document: Mapping[str, Any]) -> bool:
    return all(part["correct"] for entry in document["workloads"].values()
               for part in entry.values())


def self_check(names: Sequence[str], seed: int, seconds: float, out: str) -> int:
    """Two sets on the same tree: end-to-end within bounds, counts identical."""
    first = full_set(names, seed, seconds, out)
    second = full_set(names, seed, seconds, out)
    ok = all_correct(first) and all_correct(second)
    print(f"\n{'workload':<16} {'metric':<22} {'first':>16} {'second':>16} {'worse by':>9} {'bound':>6}")
    for name in names:
        a, b = (doc["workloads"][name] for doc in (first, second))
        for metric, spec in END_TO_END.items():
            x, y = (side["end_to_end"]["metrics"][metric] for side in (a, b))
            worse = (max(x, y) - min(x, y)) / min(x, y)
            within = worse <= spec["bound"]
            ok = ok and within
            print(f"{name:<16} {metric:<22} {x:>16.4f} {y:>16.4f} {worse:>8.2%} "
                  f"{spec['bound']:>6.0%}{'' if within else '  OUT OF BOUND'}")
        for metric, spec in PER_LAYER.items():
            x, y = (side["per_layer"]["metrics"][metric] for side in (a, b))
            if spec["unit"] == "count" and x != y:
                ok = False
                print(f"{name:<16} {metric:<22} {x:>16} {y:>16}  COUNT DIFFERS")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def regen_golden(names: Sequence[str], seed: int, out: str) -> int:
    """Pin the digests of *seed* from the scalar backend, the reference of every tier."""
    try:
        digests = load_golden()
    except FileNotFoundError:
        digests = {}
    for name in names:
        wall, report = run_child("golden", name, seed, 0, out, timeout=4 * 3600)
        (item,) = report["sweeps"]
        if item["exit"] != 0 or item["failed"]:
            raise SystemExit(f"scalar reference sweep of {name} failed: {item}")
        digests.setdefault(name, {})[str(seed)] = item["digest"]
        print(f"{name} seed {seed}: {item['digest']} ({wall:.0f} s on the scalar backend)")
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump({"schema": "repro-bench-golden/1", "digests": digests}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every base seed of the generated argv")
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]),
                        help="how long the timed sweeps of one run go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end run, 1: traced run; either ends with the "
                        "driver's JSON line (default: both passes, no JSON line)")
    parser.add_argument("--out", default=os.path.join(BENCH, "out"),
                        help="directory for result.json, traces and the sweeps' sinks")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else names
    out = os.path.abspath(args.out)  # the children run from the repo root
    if args.regen_golden:
        return regen_golden(selected, args.seed, out)
    if args.self_check:
        return self_check(selected, args.seed, args.seconds, out)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        measure, table = ((measure_end_to_end, END_TO_END), (measure_per_layer, PER_LAYER))[args.trace]
        result = measure(args.workload, args.seed, args.seconds, out)
        print_metrics(f"{args.workload} seed {args.seed}", result, table)
        print(contract_line(result, table))
        return 0
    document = full_set(selected, args.seed, args.seconds, out)
    path = os.path.join(out, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"result written to {os.path.relpath(path)}")
    return 0 if all_correct(document) else 1


if __name__ == "__main__":
    sys.exit(main())
