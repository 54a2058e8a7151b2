"""Spans recorded from outside the program, and the per-layer metrics read off them.

Nothing under ``src/`` knows about tracing: :class:`Tracer` wraps the public
entry points of each layer at run time (the single :data:`PATCHES` table),
keeps every span in memory, and is installed only for the traced pass, so
the timed sweeps run the unmodified program.

Two import facts decide where a wrapper goes.  ``from .arrays import
unpack_words`` binds the name at the import site, so function wrappers go on
the *importing* module; and a subclass that overrides a method never reaches
a wrapper on its base, so class wrappers go on every subclass that defines
the method (``subclasses=True``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

# A span is a list so the wrapper can close it in place.
NAME, START, END, PARENT, COUNT = range(5)
Span = List[Any]


class Patch(NamedTuple):
    """One wrapped entry point: ``module.target`` becomes a span named *span*."""

    span: str
    module: str
    target: str  # "function" or "Class.method"
    subclasses: bool = False
    wrapper: str = "wrap"  # the Tracer method that builds the wrapper
    count: Optional[str] = None  # the COUNTERS entry applied to the result


def _replica_loop(oracle: Any) -> int:
    """1 when a vectorised oracle still loops over replicas in Python.

    The compiled tier's own test, so the count is exactly the cells it would
    refuse with ``OPAQUE_COMPILED_ORACLE``.
    """
    from repro.compiled.backend import _needs_replica_loop

    return int(_needs_replica_loop(oracle))


COUNTERS: Dict[str, Callable[[Any], int]] = {
    "size": lambda array: int(array.size),
    "replica_loop": _replica_loop,
}

PATCHES: Tuple[Patch, ...] = (
    # runner: the CLI binds build_grid/run_sweep at import, the rest is looked
    # up in repro.runner.sweep at call time.
    Patch("runner.build_grid", "repro.runner.__main__", "build_grid"),
    Patch("runner.run_sweep", "repro.runner.__main__", "run_sweep"),
    Patch("runner.execute_run", "repro.runner.sweep", "execute_run"),
    Patch("runner.execute_super_grid", "repro.runner.sweep", "_execute_super_grid"),
    Patch("runner.cell_record", "repro.runner.sweep", "_cell_record"),
    Patch("runner.jsonl_write", "repro.runner.sweep", "JsonlSink.write"),
    Patch("runner.aggregate", "repro.runner.sweep", "SweepResult.aggregate"),
    Patch("runner.write_json", "repro.runner.sweep", "SweepResult.write_json"),
    Patch("runner.write_csv", "repro.runner.sweep", "SweepResult.write_csv"),
    Patch("runner.report_lines", "repro.runner.sweep", "SweepResult.report_lines"),
    Patch("runner.load_jsonl", "repro.runner.sweep", "load_jsonl_records"),
    # workloads: the per-cell runners call their builder through the module
    # global; the super path gets it from the registry, as a partial that
    # holds the unwrapped function.
    Patch("workloads.plan_build", "repro.workloads.batched", "build_classic_batch",
          wrapper="wrap_builder"),
    Patch("workloads.plan_build", "repro.workloads.adversarial", "build_round_adversary_batch",
          wrapper="wrap_builder"),
    Patch("workloads.plan_build", "repro.workloads.theorems", "build_step_batch",
          wrapper="wrap_builder"),
    Patch("workloads.plan_build", "repro.workloads.theorems", "build_translation_batch",
          wrapper="wrap_builder"),
    Patch("workloads.plan_build", "repro.runner.registry", "TaskRegistry.batch_builder",
          wrapper="wrap_builder_lookup"),
    # adversaries
    Patch("adversaries.vectorize", "repro.adversaries.batch", "vectorize_oracles",
          count="replica_loop"),
    Patch("adversaries.round_masks", "repro.adversaries.batch", "BroadcastBatchOracle.round_masks"),
    Patch("adversaries.round_masks", "repro.adversaries.batch", "PerReplicaBatchOracle.round_masks"),
    Patch("adversaries.round_masks", "repro.adversaries.batch", "IntersectBatchOracle.round_masks"),
    Patch("adversaries.round_masks", "repro.adversaries.counter_batch",
          "_CounterDualBase.round_masks", subclasses=True),
    # engine: counter-stream hashing, as the oracle duals call it
    Patch("engine.counter_hash", "repro.adversaries.counter_batch", "counter_hash_array",
          count="size"),
    Patch("engine.counter_hash", "repro.adversaries.counter_batch", "units_of_counters",
          count="size"),
    # batch
    Patch("batch.unpack_words", "repro.batch.engine", "unpack_words"),
    Patch("batch.unpack_words", "repro.batch.super", "unpack_words"),
    Patch("batch.popcount_words", "repro.batch.engine", "popcount_words"),
    Patch("batch.popcount_words", "repro.batch.super", "popcount_words"),
    Patch("batch.backend_run", "repro.batch.backends", "BatchBackend.run"),
    Patch("batch.super_run", "repro.batch.super", "SuperBatchBackend.run_batches"),
    # algorithms
    Patch("algorithms.kernel_step", "repro.algorithms.batched", "BatchKernel.step",
          subclasses=True),
    Patch("algorithms.decide_poll", "repro.algorithms.batched", "BatchKernel.scope_all_decided",
          subclasses=True),
    Patch("algorithms.decisions_of", "repro.algorithms.batched", "BatchKernel.decisions_of",
          subclasses=True),
    # compiled (the chunk runners are re-registered wrapped, see install)
    Patch("compiled.backend_run", "repro.compiled.backend", "CompiledBackend.run"),
    Patch("compiled.engine_run", "repro.compiled.engine", "CompiledEngine.run"),
    # predicates
    Patch("predicates.observe_round", "repro.predicates.batch", "BatchMonitorBank.observe_round"),
    Patch("predicates.reports", "repro.predicates.batch", "BatchMonitorBank.reports_json_of"),
    # predimpl: an explicit entry wins over BatchKernel.step's subclass sweep
    Patch("predimpl.step_scalar", "repro.predimpl.step_backend", "ScalarStepBackend.run"),
    Patch("predimpl.step_lowered", "repro.predimpl.step_backend", "BatchStepBackend.run"),
    Patch("predimpl.translation_step", "repro.predimpl.batched_translation",
          "BatchTranslationKernel.step"),
    # rounds
    Patch("rounds.scalar_run", "repro.rounds.backend", "ScalarBackend.run"),
)

ROOT_SPAN = "main"
COMPILED_CHUNK_SPAN = "compiled.chunk"
FINALIZE_SPAN = "workloads.finalize"

#: per-layer metrics read straight off the spans: (metric, unit, field, span names);
#: field is "self" (seconds of self time), "calls" (span count) or "count".
SPAN_METRICS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("runner.build_grid_s", "s", "self", ("runner.build_grid",)),
    ("runner.self_s", "s", "self",
     ("runner.run_sweep", "runner.execute_run", "runner.execute_super_grid")),
    ("runner.cell_record_s", "s", "self", ("runner.cell_record",)),
    ("runner.jsonl_write_s", "s", "self", ("runner.jsonl_write",)),
    ("runner.aggregate_s", "s", "self", ("runner.aggregate",)),
    ("runner.write_json_s", "s", "self", ("runner.write_json",)),
    ("runner.write_csv_s", "s", "self", ("runner.write_csv",)),
    ("runner.report_lines_s", "s", "self", ("runner.report_lines",)),
    ("runner.load_jsonl_s", "s", "self", ("runner.load_jsonl",)),
    ("workloads.plan_build_s", "s", "self", ("workloads.plan_build",)),
    ("workloads.plan_build_calls", "count", "calls", ("workloads.plan_build",)),
    ("workloads.finalize_s", "s", "self", (FINALIZE_SPAN,)),
    ("adversaries.vectorize_s", "s", "self", ("adversaries.vectorize",)),
    ("adversaries.round_masks_s", "s", "self", ("adversaries.round_masks",)),
    ("adversaries.round_masks_calls", "count", "calls", ("adversaries.round_masks",)),
    ("engine.counter_hash_s", "s", "self", ("engine.counter_hash",)),
    ("engine.counter_hash_calls", "count", "calls", ("engine.counter_hash",)),
    ("engine.counter_hash_elems", "count", "count", ("engine.counter_hash",)),
    ("batch.unpack_words_s", "s", "self", ("batch.unpack_words",)),
    ("batch.popcount_words_s", "s", "self", ("batch.popcount_words",)),
    ("batch.engine_self_s", "s", "self", ("batch.backend_run",)),
    ("batch.super_self_s", "s", "self", ("batch.super_run",)),
    ("algorithms.kernel_step_s", "s", "self", ("algorithms.kernel_step",)),
    ("algorithms.kernel_step_calls", "count", "calls", ("algorithms.kernel_step",)),
    ("algorithms.decide_poll_s", "s", "self", ("algorithms.decide_poll",)),
    ("algorithms.decisions_of_s", "s", "self", ("algorithms.decisions_of",)),
    ("compiled.chunk_s", "s", "self", (COMPILED_CHUNK_SPAN,)),
    ("compiled.chunk_calls", "count", "calls", (COMPILED_CHUNK_SPAN,)),
    ("compiled.engaged_cells", "count", "calls", ("compiled.engine_run",)),
    ("compiled.backend_self_s", "s", "self", ("compiled.backend_run", "compiled.engine_run")),
    ("predicates.observe_round_s", "s", "self", ("predicates.observe_round",)),
    ("predicates.observe_round_calls", "count", "calls", ("predicates.observe_round",)),
    ("predicates.reports_s", "s", "self", ("predicates.reports",)),
    ("predimpl.step_scalar_s", "s", "self", ("predimpl.step_scalar",)),
    ("predimpl.step_lowered_s", "s", "self", ("predimpl.step_lowered",)),
    ("predimpl.translation_step_s", "s", "self", ("predimpl.translation_step",)),
    ("predimpl.step_scalar_cells", "count", "calls", ("predimpl.step_scalar",)),
    ("rounds.scalar_run_s", "s", "self", ("rounds.scalar_run",)),
    ("rounds.scalar_run_cells", "count", "calls", ("rounds.scalar_run",)),
    ("trace.unattributed_s", "s", "self", (ROOT_SPAN,)),
)

#: per-layer metrics the worker adds from the sweep's own outputs.
OUTPUT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("runner.jsonl_bytes", "bytes"),
    ("runner.cells", "count"),
    ("runner.degraded_cells", "count"),
    ("runner.degraded_cell_share", "ratio"),
    ("adversaries.per_replica_oracle_cells", "count"),
    ("sim.messages", "count"),
    ("sim.replicas", "count"),
    ("sim.cells", "count"),
    ("trace.overhead_ratio", "ratio"),
)

PER_LAYER_UNITS: Dict[str, str] = {
    **{metric: unit for metric, unit, _, _ in SPAN_METRICS},
    **dict(OUTPUT_METRICS),
}


def _all_subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def resolve(patch: Patch) -> List[Tuple[Any, str]]:
    """The ``(owner, attribute)`` pairs *patch* wraps; raises if there are none.

    A rename under ``src/`` therefore fails the traced pass (and the bench
    tests) loudly instead of silently zeroing a layer.
    """
    owner: Any = importlib.import_module(patch.module)
    *path, attr = patch.target.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not patch.subclasses:
        getattr(owner, attr)
        return [(owner, attr)]
    explicit = {
        (other.module, other.target)
        for other in PATCHES
        if other is not patch and not other.subclasses
    }
    targets = [
        (cls, attr)
        for cls in (owner, *_all_subclasses(owner))
        if attr in vars(cls) and (cls.__module__, f"{cls.__name__}.{attr}") not in explicit
    ]
    if not targets:
        raise AttributeError(f"no class under {patch.module}.{patch.target} defines {attr}")
    return targets


class Tracer:
    """An in-memory span recorder; one tracer is one sweep, one trace id."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._current = -1
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------- #

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[Callable[[Any], int]] = None
    ) -> Callable[..., Any]:
        """*fn*, recording one span named *name* per call."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = self._current
            span: Span = [name, clock(), 0.0, parent, 0]
            self._current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[COUNT] = count(result)
                return result
            finally:
                span[END] = clock()
                self._current = parent

        return traced

    def wrap_builder(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A scenario builder whose returned CellPlan carries a traced ``finalize``."""
        build = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced_builder(*args: Any, **kwargs: Any) -> Any:
            plan = build(*args, **kwargs)
            return dataclasses.replace(plan, finalize=self.wrap(FINALIZE_SPAN, plan.finalize))

        return traced_builder

    def wrap_builder_lookup(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``TaskRegistry.batch_builder``, handing out traced builders."""

        @functools.wraps(fn)
        def lookup(registry: Any, scenario: str) -> Any:
            builder = fn(registry, scenario)
            return None if builder is None else self.wrap_builder(name, builder)

        return lookup

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Call *fn* under the root span."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    # -- installing ---------------------------------------------------- #

    def install(self) -> None:
        """Wrap every :data:`PATCHES` target and the compiled chunk runners."""
        from repro.algorithms.batched import BatchKernel
        from repro.compiled.kernels import compiled_kernel_for, register_compiled_kernel
        from repro.rounds.backend import get_backend
        from repro.runner.registry import REGISTRY

        # Subclass sweeps only see imported classes: populate both registries.
        REGISTRY.scenario_names()
        get_backend("auto")
        for patch in PATCHES:
            make = getattr(self, patch.wrapper)
            extra = (COUNTERS[patch.count],) if patch.count else ()
            for owner, attr in resolve(patch):
                original = vars(owner)[attr]
                setattr(owner, attr, make(patch.span, original, *extra))
                self._undo.append(functools.partial(setattr, owner, attr, original))
        for kernel_class in _all_subclasses(BatchKernel):
            spec = compiled_kernel_for(kernel_class)
            if spec is not None:
                wrapped = self.wrap(COMPILED_CHUNK_SPAN, spec.runner)
                register_compiled_kernel(dataclasses.replace(spec, runner=wrapped))
                self._undo.append(functools.partial(register_compiled_kernel, spec))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ------------------------------------------------------- #

    def to_json(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "fields": ["name", "start", "end", "parent", "count"],
            "spans": self.spans,
        }


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, span count, summed result count."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"self": 0.0, "calls": 0, "count": 0})
        row["self"] += own
        row["calls"] += 1
        row["count"] += span[COUNT]
    return table


def span_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The :data:`SPAN_METRICS` values of one traced sweep (absent spans read 0)."""
    table = totals(spans)
    empty = {"self": 0.0, "calls": 0, "count": 0}
    return {
        metric: sum(table.get(name, empty)[field] for name in names)
        for metric, _, field, names in SPAN_METRICS
    }


def top_level_count(spans: Sequence[Span], name: str) -> int:
    """Summed result count of the *name* spans not nested in another *name* span.

    ``vectorize_oracles`` recurses into intersection components; only the
    outermost call is the cell's verdict.
    """
    return sum(
        span[COUNT]
        for span in spans
        if span[NAME] == name and (span[PARENT] < 0 or spans[span[PARENT]][NAME] != name)
    )


def root_wall(spans: Sequence[Span]) -> float:
    return sum(span[END] - span[START] for span in spans if span[NAME] == ROOT_SPAN)
