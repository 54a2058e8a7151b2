"""Command-line sweep executor: ``python -m repro.runner``.

Runs a (scenario × fault-model × size × seed) grid, prints a fixed-width
report and optionally writes machine-readable outputs: the JSON summary
consumed by CI, a CSV of the per-run records, and a streamed JSONL file
(one line per finished run) that a killed grid can be resumed from::

    python -m repro.runner \
        --scenarios ho-stack chandra-toueg \
        --fault-models fault-free crash-stop \
        --seeds 0 1 --ns 4 8 --workers 2 \
        --jsonl sweep.jsonl --json sweep.json

    # the box died mid-grid?  completed cells are skipped:
    python -m repro.runner ... --jsonl sweep.jsonl --resume-from sweep.jsonl

Both grid axes are validated against the registry up front -- a typo in a
scenario *or fault-model* name exits with code 2 and the known list,
instead of silently turning every cell into an errored run; so does a
system size below 1, and a grid whose cells cover a seed twice (a repeated
axis entry, or ``--seeds`` closer together than ``--replicas``).  A sink
that cannot be written (a full disk, a read-only path) also exits 2, with
the path in a one-line message; JSONL lines flushed before the failure stay
resumable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from ..predicates import MONITOR_NAMES, canonical_predicate_name
from .registry import REGISTRY
from .sweep import (
    BACKEND_CHOICES,
    JsonlSink,
    _reject_overlapping_seeds,
    _resolve_workers,
    build_grid,
    run_sweep,
)


def _parse_params(entries: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--param key=value`` flags (values as JSON, else str)."""
    params: Dict[str, object] = {}
    for entry in entries or ():
        key, separator, raw = entry.partition("=")
        if not separator or not key:
            raise ValueError(f"--param expects key=value, got {entry!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run a (scenario x fault-model x size x seed) sweep grid.",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        help="scenario names (default: every registered scenario)",
    )
    parser.add_argument(
        "--fault-models",
        nargs="+",
        default=["fault-free", "crash-stop", "crash-recovery", "lossy"],
        help="fault models to sweep (default: all four)",
    )
    parser.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0],
        help="seeds to sweep (default: 0)",
    )
    parser.add_argument("--n", type=int, default=4, help="system size (default: 4)")
    parser.add_argument(
        "--ns",
        nargs="+",
        type=int,
        default=None,
        help="sweep several system sizes (overrides --n), e.g. --ns 4 8 16",
    )
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="extra scenario parameter (repeatable); VALUE is parsed as JSON "
        "when possible, e.g. --param rounds=120 --param churn=0.5",
    )
    parser.add_argument(
        "--predicates",
        nargs="+",
        default=None,
        metavar="NAME",
        help="attach streaming predicate monitors to every run (names may be "
        "space- or comma-separated, e.g. --predicates p_otr,p_su,p_k); "
        "reports land in the per-run 'predicates' field of every sink",
    )
    parser.add_argument(
        "--stop-after-held",
        type=int,
        default=None,
        metavar="K",
        help="stop each run once a monitored predicate's good condition held "
        "for K consecutive rounds (requires --predicates)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="batch each grid cell over R consecutive seeds (seed .. seed+R-1), "
        "scheduled as one replica batch instead of R independent runs; records "
        "then carry per-replica outcomes and per-cell aggregates",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="execution backend for batched cells: 'compiled' = the fused "
        "multi-round JIT loop (numba when available, with an automatic "
        "per-cell batch fallback), 'batch' = the vectorized lockstep-replica "
        "engine (with an automatic per-cell scalar fallback), 'auto' = compiled when numba is importable else batch, "
        "'super' = pack the whole grid, monitored cells included, into one "
        "cross-cell lockstep run (single process), 'scalar' = the reference "
        "backend (scalar, or step-scalar for step cells) over the same cell "
        "plan (default: auto; only meaningful with --replicas)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (default: 1 = inline)",
    )
    parser.add_argument("--json", default=None, help="write the JSON summary here")
    parser.add_argument(
        "--csv", default=None, help="write one CSV row per run here"
    )
    parser.add_argument(
        "--jsonl",
        default=None,
        help="stream one JSON line per finished run here (flushed per run, "
        "so a killed grid can be resumed)",
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        help="JSONL file of a previous run of this grid; completed cells are "
        "skipped (pair with --jsonl on the same path to keep one file)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered scenarios, fault models and predicates, then exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-run progress lines"
    )
    args = parser.parse_args(argv)

    if args.list:
        monitorable = set(REGISTRY.monitorable_scenario_names())
        batchable = set(REGISTRY.batchable_scenario_names())
        print("scenarios:")
        for name in REGISTRY.scenario_names():
            tags = [tag for tag, hit in (("monitorable", name in monitorable),
                                         ("batchable", name in batchable)) if hit]
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            print(f"  {name}{suffix}")
        print("fault models:")
        for name in REGISTRY.fault_model_names():
            print(f"  {name}")
        print("predicates (for --predicates, on [monitorable] scenarios):")
        for name in MONITOR_NAMES:
            print(f"  {name}")
        return 0

    known = REGISTRY.scenario_names()
    scenarios = args.scenarios if args.scenarios else known
    unknown = [name for name in scenarios if name not in known]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    known_fault_models = REGISTRY.fault_model_names()
    unknown = [name for name in args.fault_models if name not in known_fault_models]
    if unknown:
        print(
            f"error: unknown fault model(s) {', '.join(unknown)}; "
            f"known: {', '.join(known_fault_models)}",
            file=sys.stderr,
        )
        return 2

    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.replicas is not None and args.replicas < 1:
        print(f"error: --replicas must be at least 1, got {args.replicas}", file=sys.stderr)
        return 2

    if args.backend == "super" and args.workers > 1:
        print(
            "error: --backend super is single-process by design (the whole "
            "grid is one schedulable unit); drop --workers or use --backend batch",
            file=sys.stderr,
        )
        return 2

    if args.stop_after_held is not None and not args.predicates:
        print("error: --stop-after-held requires --predicates", file=sys.stderr)
        return 2
    if args.stop_after_held is not None and args.stop_after_held < 1:
        print(
            f"error: --stop-after-held must be at least 1, got {args.stop_after_held}",
            file=sys.stderr,
        )
        return 2
    if args.predicates:
        raw_names = [name for entry in args.predicates for name in entry.split(",") if name]
        try:
            predicate_names = tuple(canonical_predicate_name(name) for name in raw_names)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        unmonitorable = [
            name for name in scenarios if not REGISTRY.scenario_is_monitorable(name)
        ]
        if unmonitorable:
            print(
                f"error: --predicates requires monitorable scenarios; "
                f"{', '.join(unmonitorable)} run(s) without a heard-of collection. "
                f"Monitorable: {', '.join(REGISTRY.monitorable_scenario_names())}",
                file=sys.stderr,
            )
            return 2
        params["predicates"] = predicate_names
        if args.stop_after_held is not None:
            params["stop_after_held"] = args.stop_after_held

    sizes = args.ns if args.ns else [args.n]
    try:
        # As an overlay, not **params: a --param key must reach build_grid's
        # reserved-key check instead of binding to one of its own parameters.
        specs = build_grid(
            scenarios, args.fault_models, args.seeds, ns=sizes, param_sets=[params]
        )
        # Here, not only inside run_sweep: a rejected grid must not have
        # truncated an existing --jsonl file on its way to the error.
        _reject_overlapping_seeds(specs, args.replicas)
    except ValueError as exc:  # a size below 1, a reserved --param key, a seed covered twice
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = _resolve_workers(args.workers, len(specs))
    batched = (
        f" x {args.replicas} replica(s) [{args.backend} backend]"
        if args.replicas is not None
        else ""
    )
    print(
        f"sweep: {len(scenarios)} scenario(s) x {len(args.fault_models)} fault "
        f"model(s) x {len(sizes)} size(s) x {len(args.seeds)} base seed(s)"
        f"{batched} = {len(specs)} cell(s) ({workers} worker(s))"
    )

    on_record = None
    if not args.quiet:
        on_record = lambda record: print(f"  done {record.row()}")  # noqa: E731

    # The sink an OSError below is about: the JSONL stream while the sweep
    # runs, then each summary file as it is written.
    writing = args.jsonl
    try:
        sinks = []
        if args.jsonl:
            # realpath, not abspath: opening the resume file in "w" mode
            # through a symlink/alias would truncate it before the resume
            # records load.
            append = args.resume_from is not None and os.path.realpath(
                args.resume_from
            ) == os.path.realpath(args.jsonl)
            sinks.append(JsonlSink(args.jsonl, append=append))

        result = run_sweep(
            specs,
            workers=workers,
            on_record=on_record,
            sinks=sinks,
            resume_from=args.resume_from,
            replicas=args.replicas,
            backend=args.backend,
        )

        print()
        for line in result.report_lines():
            print(line)
        resumed = f", {result.resumed} cell(s) resumed" if result.resumed else ""
        print(
            f"\nwall time: {result.wall_seconds:.2f}s with {result.workers} "
            f"worker(s){resumed}"
        )

        if args.json:
            writing = args.json
            result.write_json(args.json)
            print(f"JSON summary written to {args.json}")
        if args.jsonl:
            print(f"JSONL records streamed to {args.jsonl}")
        if args.csv:
            writing = args.csv
            result.write_csv(args.csv)
            print(f"CSV records written to {args.csv}")
    except OSError as exc:
        if writing is None:
            raise
        print(f"error: cannot write {writing}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    errors = sum(1 for record in result.records if record.error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
