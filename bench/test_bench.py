"""Tests of the benchmark's own machinery (``python -m pytest bench/ -q``).

Outside ``testpaths``, so the tier-1 suite never collects them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from bench import trace
from bench.workloads import WORKLOADS, digest, load_golden

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(name, start, end, parent, count=0):
    return [name, start, end, parent, count]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        _span("main", 0.0, 10.0, -1),
        _span("a", 1.0, 6.0, 0),
        _span("b", 2.0, 3.0, 1, count=7),
        _span("b", 4.0, 5.5, 1, count=5),
        _span("a", 7.0, 9.0, 0),
    ]
    assert trace.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]
    table = trace.totals(spans)
    assert table["a"] == {"self": 4.5, "calls": 2, "count": 0}
    assert table["b"] == {"self": 2.5, "calls": 2, "count": 12}
    assert trace.root_wall(spans) == 10.0
    # every second of the root is attributed exactly once
    assert sum(row["self"] for row in table.values()) == pytest.approx(10.0)


def test_top_level_count_skips_recursive_calls():
    spans = [
        _span("v", 0.0, 4.0, -1, count=1),
        _span("v", 1.0, 2.0, 0, count=1),
        _span("v", 5.0, 6.0, -1, count=0),
    ]
    assert trace.top_level_count(spans, "v") == 1


def test_tracer_records_nesting_and_survives_exceptions():
    tracer = trace.Tracer("t")

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)
    with pytest.raises(ValueError):
        tracer.run(inner)
    (root, child) = tracer.spans
    assert (root[trace.NAME], root[trace.PARENT]) == (trace.ROOT_SPAN, -1)
    assert (child[trace.NAME], child[trace.PARENT]) == ("inner", 0)
    assert root[trace.END] >= child[trace.END] > 0.0


def test_digest_is_key_order_insensitive():
    a = {"x/fault-free": {"runs": 1, "solve_rate": 1.0}, "y/lossy": {"runs": 2, "seeds": [1, 2]}}
    b = {"y/lossy": {"seeds": [1, 2], "runs": 2}, "x/fault-free": {"solve_rate": 1.0, "runs": 1}}
    assert digest(a) == digest(b)
    assert digest(a) != digest({**a, "x/fault-free": {"runs": 1, "solve_rate": 0.5}})


@pytest.mark.parametrize("patch", trace.PATCHES, ids=lambda p: f"{p.module}:{p.target}")
def test_every_patch_resolves(patch):
    from repro.rounds.backend import get_backend
    from repro.runner.registry import REGISTRY

    REGISTRY.scenario_names()
    get_backend("auto")
    targets = trace.resolve(patch)
    assert targets
    assert patch.count is None or patch.count in trace.COUNTERS
    assert callable(getattr(trace.Tracer, patch.wrapper))


def test_translation_kernel_step_is_not_also_a_kernel_step():
    (step,) = [p for p in trace.PATCHES if p.target == "BatchKernel.step"]
    owners = {owner.__name__ for owner, _ in trace.resolve(step)}
    assert "BatchOneThirdRule" in owners
    assert "BatchTranslationKernel" not in owners


def test_install_wraps_and_uninstall_restores():
    import repro.batch.engine as engine
    from repro.algorithms.batched import BatchOneThirdRule
    from repro.compiled.kernels import compiled_kernel_for

    before = (engine.unpack_words, BatchOneThirdRule.step,
              compiled_kernel_for(BatchOneThirdRule).runner)
    tracer = trace.Tracer("t")
    tracer.install()
    try:
        during = (engine.unpack_words, BatchOneThirdRule.step,
                  compiled_kernel_for(BatchOneThirdRule).runner)
    finally:
        tracer.uninstall()
    after = (engine.unpack_words, BatchOneThirdRule.step,
             compiled_kernel_for(BatchOneThirdRule).runner)
    assert all(new is not old for new, old in zip(during, before))
    assert after == before


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert {e["name"]: e["unit"] for e in manifest["per_layer"]} == trace.PER_LAYER_UNITS
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    golden = load_golden()
    assert all("0" in golden[w.name] for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_argv_parses_and_warmup_sweep_exits_zero(workload, tmp_path):
    import repro.runner.__main__ as cli

    out_dir = str(tmp_path)
    full = workload.argv(3, out_dir)
    seeds = full[full.index("--seeds") + 1: full.index("--replicas")]
    assert seeds == [str(base + 3) for base in workload.base_seeds]
    # --list returns before any grid is built: the full-size argv only has to parse
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(full + ["--list"]) == 0
        assert cli.main(workload.warmup_argv(3, out_dir)) == 0
    with open(workload.sink_path(out_dir, "json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    assert summary["grid_size"] == len(summary["runs"]) > 0
    assert all(run["error"] is None for run in summary["runs"])
