"""repro.runner: the scenario registry and the parallel multi-run harness.

The runner turns single simulation runs into experiments:

* :mod:`repro.runner.registry` -- scenarios registered under picklable
  string names (populated by importing :mod:`repro.workloads`);
* :mod:`repro.runner.sweep` -- grid expansion, the (optionally
  ``multiprocessing``-parallel) sweep executor, deterministic aggregation
  and the machine-readable JSON summary;
* ``python -m repro.runner`` -- the command-line entry point used by CI to
  produce sweep summaries on every push.
"""

from .registry import REGISTRY, TaskRegistry
from .sweep import (
    SCHEMA,
    JsonlSink,
    RecordSink,
    RunRecord,
    RunSpec,
    SweepResult,
    build_grid,
    load_jsonl_records,
    run_one,
    run_sweep,
)

__all__ = [
    "REGISTRY",
    "TaskRegistry",
    "SCHEMA",
    "RunSpec",
    "RunRecord",
    "SweepResult",
    "RecordSink",
    "JsonlSink",
    "load_jsonl_records",
    "build_grid",
    "run_sweep",
    "run_one",
]
