"""The child interpreter of the benchmark: sets up, sweeps, and reports one JSON line.

``run.py`` starts one fresh interpreter per role so that set-up is paid (and
timed) from process start, peak RSS belongs to one workload, and a traced
pass can never leak wrappers into a timed one:

* ``setup``   import, populate the registries, run the reduced warm-up sweep, exit;
* ``timed``   set-up, one discarded sweep, then timed sweeps with tracing off;
* ``traced``  set-up, a few untraced sweeps (the overhead baseline), then traced ones;
* ``golden``  one sweep on the scalar reference backend, for ``--regen-golden``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The script directory would shadow the stdlib ``trace`` with bench/trace.py.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # An installed copy of the package must never stand in for this checkout's.
    raise SystemExit(f"{ROOT} holds no src/repro: nothing to benchmark")

from bench import trace as tracing  # noqa: E402
from bench.workloads import BY_NAME, Workload, digest  # noqa: E402

#: timed sweeps never fewer than this, however short ``--seconds`` is.
MIN_TIMED_SWEEPS = 5


def set_up(workload: Workload, seed: int, out_dir: str) -> Any:
    """Everything a first sweep would otherwise pay for; returns the CLI module."""
    import repro.runner.__main__ as cli
    from repro.rounds.backend import get_backend
    from repro.runner.registry import REGISTRY

    REGISTRY.scenario_names()
    get_backend("auto")
    get_backend("super")
    code = _call_main(cli.main, workload.warmup_argv(seed, out_dir))
    if code != 0:
        raise SystemExit(f"warm-up sweep of {workload.name} exited {code}")
    return cli


def _call_main(main: Any, argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def sweep(cli: Any, workload: Workload, argv: List[str], out_dir: str,
          tracer: Optional[tracing.Tracer] = None) -> Dict[str, Any]:
    """One ``main(argv)`` call, then (outside the clock) what its summary says."""
    main = cli.main if tracer is None else (lambda args: tracer.run(cli.main, args))
    started = time.perf_counter()
    code = _call_main(main, argv)
    wall = time.perf_counter() - started
    with open(workload.sink_path(out_dir, "json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    aggregates = summary["aggregates"]
    runs = summary["runs"]
    failed = 0
    tiers: Dict[str, int] = {}
    for run in runs:
        payload = run["replicas"]
        label = payload["backend"]
        tiers[label] = tiers.get(label, 0) + 1
        if run["error"]:
            failed += payload["count"]
        else:
            failed += sum(1 for outcome in payload["outcomes"] if outcome["error"])
    return {
        "wall_s": wall,
        "exit": code,
        "digest": digest(aggregates),
        "messages": sum(group["total_messages_sent"] for group in aggregates.values()),
        "replicas": sum(run["replicas"]["count"] for run in runs),
        "cells": len(runs),
        "failed": failed,
        "all_safe": all(group["all_safe"] is True for group in aggregates.values()),
        "tiers": tiers,
    }


def environment() -> Dict[str, Any]:
    from repro._optional import NUMBA, NUMPY, have_numba

    return {
        "python": platform.python_version(),
        "numpy": getattr(NUMPY, "__version__", None),
        "numba": getattr(NUMBA, "__version__", None),
        "have_numba": have_numba(),
        "nproc": os.cpu_count(),
        "thread_pins": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
        },
    }


def timed(workload: Workload, seed: int, seconds: float, out_dir: str,
          min_sweeps: int = MIN_TIMED_SWEEPS) -> Dict[str, Any]:
    cli = set_up(workload, seed, out_dir)
    argv = workload.argv(seed, out_dir)
    sweep(cli, workload, argv, out_dir)  # discarded: first full-size allocation
    sweeps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(sweeps) < min_sweeps or time.perf_counter() - started < seconds:
        sweeps.append(sweep(cli, workload, argv, out_dir))
    return {"argv": argv, "sweeps": sweeps}


def traced(workload: Workload, seed: int, seconds: float, out_dir: str,
           trace_path: str) -> Dict[str, Any]:
    # Half the budget measures the untraced baseline of trace.overhead_ratio,
    # the other half repeats the traced sweep; the pass with the median wall
    # is reported, as the median timed sweep is.
    import repro.runner.__main__ as cli
    import repro.runner.sweep as sweep_module

    result = timed(workload, seed, seconds / 2, out_dir, min_sweeps=2)
    argv = result["argv"]
    jsonl = workload.sink_path(out_dir, "jsonl")
    passes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds / 2:
        tracer = tracing.Tracer(f"{workload.name}-{seed}-{len(passes)}")
        tracer.install()
        try:
            outcome = sweep(cli, workload, argv, out_dir, tracer)
            records = sweep_module.load_jsonl_records(jsonl)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        degraded = sum(1 for record in records if "fallback" in record.replicas["backend"])
        layers = tracing.span_metrics(spans)
        layers.update({
            "runner.jsonl_bytes": os.path.getsize(jsonl),
            "runner.cells": len(records),
            "runner.degraded_cells": degraded,
            "runner.degraded_cell_share": degraded / len(records),
            "adversaries.per_replica_oracle_cells":
                tracing.top_level_count(spans, "adversaries.vectorize"),
            "sim.messages": outcome["messages"],
            "sim.replicas": outcome["replicas"],
            "sim.cells": outcome["cells"],
        })
        passes.append({"sweep": outcome, "layers": layers,
                       "traced_wall_s": tracing.root_wall(spans), "tracer": tracer})
    passes.sort(key=lambda item: item["traced_wall_s"])
    typical = passes[(len(passes) - 1) // 2]
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(typical.pop("tracer").to_json(), handle)
    exact = [name for name, unit in tracing.PER_LAYER_UNITS.items() if unit == "count"]
    result["counts_repeat"] = all(
        item["layers"][name] == typical["layers"][name] for item in passes for name in exact
    )
    untraced = statistics.median(item["wall_s"] for item in result["sweeps"])
    typical["layers"]["trace.overhead_ratio"] = typical["traced_wall_s"] / untraced
    result.update(layers=typical["layers"], traced_wall_s=typical["traced_wall_s"],
                  traced_sweeps=[item["sweep"] for item in passes], trace_file=trace_path)
    return result


def golden(workload: Workload, seed: int, out_dir: str) -> Dict[str, Any]:
    import repro.runner.__main__ as cli

    # argparse keeps the last --backend, so this overrides wide-grid's "super".
    argv = workload.argv(seed, out_dir) + ["--backend", "scalar"]
    return {"argv": argv, "sweeps": [sweep(cli, workload, argv, out_dir)]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True, choices=("setup", "timed", "traced", "golden"))
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="directory for sinks and the trace file")
    args = parser.parse_args()

    workload = BY_NAME[args.workload]
    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out, prefix=f"{workload.name}-") as sinks:
        if args.role == "setup":
            set_up(workload, args.seed, sinks)
            return 0
        if args.role == "timed":
            result = timed(workload, args.seed, args.seconds, sinks)
        elif args.role == "traced":
            trace_path = os.path.join(args.out, f"trace-{workload.name}.json")
            result = traced(workload, args.seed, args.seconds, sinks, trace_path)
        else:
            result = golden(workload, args.seed, sinks)
    # Read last: the high-water mark of everything this child did.  The traced
    # role is never asked for it.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
