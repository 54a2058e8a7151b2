"""The super-batch sweep path: the whole grid as one schedulable unit.

``run_sweep(backend="super")`` builds one CellPlan per seed-sibling group
(the cells equal in everything but their base seed) through the registry
and hands every batch to the super backend in one call.  These tests pin
the records equal to the scalar reference, the backend labels (``super`` /
``super:scalar-fallback (reason)``), the grouping, its error isolation and
its resume, the single-process constraint (library ValueError and CLI
exit 2), and the CellPlan builder registry itself.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.batch.super import SuperBatchBackend
from repro.rounds.backend import CellPlan
from repro.rounds.bitmask import iter_bits
from repro.runner.__main__ import main as cli_main
from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    BACKEND_CHOICES,
    JsonlSink,
    build_grid,
    execute_run,
    run_sweep,
)
from repro.workloads.batched import build_classic_batch, cell_plan, run_seed


GRID = dict(
    scenarios=["ho-classic-otr", "ho-round-mobile-omission", "ho-round-bursty-loss"],
    fault_models=["fault-free", "crash-stop"],
    seeds=[0],
)

#: three base seeds per (scenario, fault model, n): every cell has two siblings.
SIBLING_GRID = dict(
    scenarios=[
        "ho-classic-otr", "ho-round-mobile-omission", "ho-round-bursty-loss",
        "ho-theorem8-translation",
    ],
    fault_models=["fault-free", "crash-stop", "lossy"],
    seeds=[0, 100, 200],
    ns=[4, 7],
)

COMPLEX_VALUED = "test-complex-valued-lv"
CURSED_SEED = "test-raises-at-seed-100"


def build_complex_valued_batch(fault_model, n=4, seeds=(0,), **params):
    """``ho-classic-lv``'s cell with complex initial values: LastVoting runs
    them (its tie-break is by ``repr``), but no value table encodes them."""
    plan = build_classic_batch(fault_model, n=n, seeds=seeds, algorithm="lv", **params)
    batch = plan.batch
    tasks = [
        replace(task, initial_values=[complex(v, v) for v in task.initial_values])
        for task in batch.tasks
    ]
    scope = iter_bits(batch.effective_scope_mask)
    return cell_plan(n, tasks, batch.max_rounds, scope, None, None, False)


def build_raising_at_seed_100(fault_model, n=4, seeds=(0,), **params):
    """``ho-classic-otr``'s cell, except that a cell covering seed 100 raises."""
    if 100 in seeds:
        raise ValueError("no plan covers seed 100")
    return build_classic_batch(fault_model, n=n, seeds=seeds, **params)


def _register_for_one_test(monkeypatch, name, builder):
    REGISTRY.scenario_names()  # populate first: the copies below must hold the workloads
    for table in ("_scenarios", "_monitorable", "_batch_builders"):
        monkeypatch.setattr(REGISTRY, table, dict(getattr(REGISTRY, table)))
    REGISTRY.register_scenario(name, partial(run_seed, name), batch_builder=builder)
    return name


@pytest.fixture
def complex_valued_scenario(monkeypatch):
    """A batchable scenario every array tier declines, registered for one test."""
    return _register_for_one_test(monkeypatch, COMPLEX_VALUED, build_complex_valued_batch)


@pytest.fixture
def cursed_seed_scenario(monkeypatch):
    """A batchable scenario whose builder fails on seed 100 only."""
    return _register_for_one_test(monkeypatch, CURSED_SEED, build_raising_at_seed_100)


def _spy_run_batches(patch):
    """Record the replica count of every batch each ``run_batches`` call gets."""
    calls = []
    original = SuperBatchBackend.run_batches

    def spy(self, batches):
        calls.append([batch.replicas for batch in batches])
        return original(self, batches)

    patch.setattr(SuperBatchBackend, "run_batches", spy)
    return calls


@pytest.fixture(scope="module")
def sibling_sweeps(tmp_path_factory):
    """:data:`SIBLING_GRID` at 3 replicas on ``super`` (spied, into a JSONL
    file) and on ``scalar``."""
    specs = build_grid(**SIBLING_GRID)
    path = tmp_path_factory.mktemp("siblings") / "super.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        calls = _spy_run_batches(patch)
        sup = run_sweep(specs, replicas=3, backend="super", sinks=[JsonlSink(str(path))])
    ref = run_sweep(specs, replicas=3, backend="scalar")
    return specs, sup, ref, path, calls


class TestSuperSweep:
    def test_super_is_a_backend_choice(self):
        assert "super" in BACKEND_CHOICES

    def test_super_records_match_scalar(self):
        specs = build_grid(ns=[4, 6], **GRID)
        sup = run_sweep(specs, replicas=3, backend="super")
        ref = run_sweep(specs, replicas=3, backend="scalar")
        assert len(sup.records) == len(ref.records)
        for a, b in zip(sup.records, ref.records):
            assert a.error is None
            assert a.replicas["outcomes"] == b.replicas["outcomes"]
            assert a.replicas["aggregates"] == b.replicas["aggregates"]
        assert sup.aggregate() == ref.aggregate()

    def test_super_label_on_grid_cells(self):
        specs = build_grid(ns=[4], **GRID)
        result = run_sweep(specs, replicas=2, backend="super")
        assert all(r.replicas["backend"] == "super" for r in result.records)

    def test_workers_gt_one_rejected(self):
        specs = build_grid(ns=[4], **GRID)
        with pytest.raises(ValueError, match="single-process by design"):
            run_sweep(specs, replicas=2, backend="super", workers=4)

    def test_workers_one_or_none_accepted(self):
        specs = build_grid(scenarios=["ho-classic-otr"], fault_models=["fault-free"],
                           seeds=[0], ns=[4])
        assert run_sweep(specs, replicas=2, backend="super", workers=1).records
        assert run_sweep(specs, replicas=2, backend="super", workers=None).records

    def test_monitored_grid_gets_no_fallback_label(self):
        """Cells with predicates pack like any other: every record says
        ``super`` and the predicate aggregates equal the scalar sweep's."""
        specs = build_grid(
            ns=[4], predicates=("p_su", "p_k", "p_2otr"), stop_after_held=8, **GRID
        )
        sup = run_sweep(specs, replicas=4, backend="super")
        ref = run_sweep(specs, replicas=4, backend="scalar")
        assert all(record.error is None for record in sup.records)
        assert sup.aggregate() == ref.aggregate()
        assert all(group["predicates"] for group in sup.aggregate().values())
        assert {r.replicas["backend"] for r in sup.records} == {"super"}

    def test_translation_cells_super_batch(self):
        """Theorem 8 cells of different n, hence different f, share the row
        space with classic cells: every record says ``super`` and equals the
        scalar sweep's."""
        specs = build_grid(
            scenarios=["ho-theorem8-translation", "ho-classic-otr"],
            fault_models=["fault-free", "lossy"],
            seeds=[0],
            ns=[4, 7],
        )
        sup = run_sweep(specs, replicas=4, backend="super")
        ref = run_sweep(specs, replicas=4, backend="scalar")
        assert {r.replicas["backend"] for r in sup.records} == {"super"}
        for a, b in zip(sup.records, ref.records):
            assert a.error is None
            assert a.replicas["outcomes"] == b.replicas["outcomes"]
        assert sup.aggregate() == ref.aggregate()

    def test_mixed_grid_labels_each_cell_with_what_ran_it(self):
        """Step scenarios alias ``super`` onto ``step-batch``: their cells take
        the per-cell path (a StepEnvironment is no oracle to vectorise) while
        the classic cells of the same grid super-batch."""
        specs = build_grid(
            scenarios=["ho-step-down-otr", "ho-classic-otr"],
            fault_models=["fault-free", "lossy"],
            seeds=[0],
            ns=[4],
        )
        sup = run_sweep(specs, replicas=2, backend="super")
        ref = run_sweep(specs, replicas=2, backend="scalar")
        assert all(record.error is None for record in sup.records)
        assert sup.aggregate() == ref.aggregate()
        labels = {
            (r.scenario, r.fault_model): r.replicas["backend"] for r in sup.records
        }
        assert labels[("ho-step-down-otr", "fault-free")] == "step-batch"
        assert labels[("ho-classic-otr", "fault-free")] == "super"
        assert labels[("ho-classic-otr", "lossy")] == "super"
        assert labels[("ho-step-down-otr", "lossy")].startswith(
            "step-batch:scalar-fallback ("
        )

    def test_declined_cell_is_labelled_with_the_hop_batch_takes(
        self, complex_valued_scenario
    ):
        """A cell ``super`` declines runs on the scalar reference, exactly
        where ``batch`` sends it, so the two labels differ only in the tier."""
        specs = build_grid(
            scenarios=[complex_valued_scenario], fault_models=["fault-free"], seeds=[0], ns=[4]
        )
        sup = run_sweep(specs, replicas=2, backend="super").records[0]
        per_cell = run_sweep(specs, replicas=2, backend="batch").records[0]
        scalar = run_sweep(specs, replicas=2, backend="scalar").records[0]
        assert sup.replicas["backend"].startswith(
            "super:scalar-fallback (initial values are not encodable"
        )
        assert sup.replicas["backend"].split(":", 1)[1] == (
            per_cell.replicas["backend"].split(":", 1)[1]
        )
        assert sup.replicas["outcomes"] == per_cell.replicas["outcomes"]
        assert sup.replicas["outcomes"] == scalar.replicas["outcomes"]


class TestSeedSiblingGroups:
    """Cells differing only in their base seed run as one replica batch."""

    def test_records_match_scalar(self, sibling_sweeps):
        _, sup, ref, _, _ = sibling_sweeps
        assert len(sup.records) == len(ref.records)
        for a, b in zip(sup.records, ref.records):
            assert a.error is None
            assert a.replicas["outcomes"] == b.replicas["outcomes"]
            assert a.replicas["aggregates"] == b.replicas["aggregates"]
        assert sup.aggregate() == ref.aggregate()

    def test_every_label_is_super(self, sibling_sweeps):
        _, sup, _, _, _ = sibling_sweeps
        assert {r.replicas["backend"] for r in sup.records} == {"super"}

    def test_jsonl_lines_in_grid_order(self, sibling_sweeps):
        specs, _, _, path, _ = sibling_sweeps
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["scenario"], r["fault_model"], r["n"], r["seed"]) for r in lines] == [
            (s.scenario, s.fault_model, s.n, s.seed) for s in specs
        ]

    def test_each_group_is_one_batch(self, sibling_sweeps):
        specs, _, _, _, calls = sibling_sweeps
        assert calls == [[9] * (len(specs) // 3)]

    def test_builder_error_stays_on_its_cell(self, cursed_seed_scenario):
        """The merged build raises; rebuilt alone, only the seed-100 cell
        fails, with the per-cell path's error record, and its siblings run."""
        specs = build_grid(
            scenarios=[cursed_seed_scenario], fault_models=["fault-free"],
            seeds=[0, 100, 200], ns=[4],
        )
        records = run_sweep(specs, replicas=3, backend="super").records
        alone = execute_run(replace(specs[1], replicas=3, backend="super"))
        assert alone.error == "ValueError: no plan covers seed 100"
        assert records[1].error == alone.error
        assert records[1].replicas == alone.replicas
        for record in (records[0], records[2]):
            assert record.error is None
            assert record.replicas["backend"] == "super"
            assert record.solved

    def test_declined_group_keeps_each_cells_label(
        self, complex_valued_scenario, monkeypatch
    ):
        specs = build_grid(
            scenarios=[complex_valued_scenario], fault_models=["fault-free"],
            seeds=[0, 100], ns=[4],
        )
        alone = [run_sweep([spec], replicas=2, backend="super").records[0] for spec in specs]
        calls = _spy_run_batches(monkeypatch)
        merged = run_sweep(specs, replicas=2, backend="super").records
        assert calls == [[4]]
        for record, reference in zip(merged, alone):
            assert record.replicas["backend"].startswith(
                "super:scalar-fallback (initial values are not encodable"
            )
            assert record.replicas["backend"] == reference.replicas["backend"]
            assert record.replicas["outcomes"] == reference.replicas["outcomes"]

    def test_resume_runs_the_missing_siblings_merged(self, tmp_path, monkeypatch):
        specs = build_grid(
            scenarios=["ho-classic-otr", "ho-round-bursty-loss"], fault_models=["lossy"],
            seeds=[0, 100, 200], ns=[4],
        )
        fresh_path = tmp_path / "fresh.jsonl"
        fresh = run_sweep(specs, replicas=3, backend="super", sinks=[JsonlSink(str(fresh_path))])
        partial_path = tmp_path / "partial.jsonl"
        # Only the seed-100 cell of the first group survived the kill.
        partial_path.write_text(fresh_path.read_text().splitlines()[1] + "\n")
        calls = _spy_run_batches(monkeypatch)
        resumed = run_sweep(
            specs, replicas=3, backend="super", resume_from=str(partial_path),
            sinks=[JsonlSink(str(partial_path), append=True)],
        )
        assert resumed.resumed == 1
        assert calls == [[6, 9]]
        assert resumed.aggregate() == fresh.aggregate()


class TestBuilderRegistry:
    @pytest.mark.parametrize("scenario", REGISTRY.batchable_scenario_names())
    def test_builder_registered_and_returns_cellplan(self, scenario):
        builder = REGISTRY.batch_builder(scenario)
        assert builder is not None
        plan = builder("fault-free", n=4, seeds=[0, 1])
        assert isinstance(plan, CellPlan)
        assert plan.batch.replicas == 2

    def test_finalize_flattens_outcomes(self):
        from repro.rounds.backend import get_backend

        plan = REGISTRY.batch_builder("ho-classic-otr")("fault-free", n=4, seeds=[0, 1])
        outcomes = plan.finalize(get_backend("scalar").run(plan.batch))
        assert len(outcomes) == 2
        assert all(o["solved"] for o in outcomes)


class TestCli:
    def test_super_with_workers_exits_2(self, capsys):
        code = cli_main(
            ["--backend", "super", "--workers", "4", "--replicas", "2"]
        )
        assert code == 2
        assert "single-process by design" in capsys.readouterr().err

    def test_super_smoke_grid_runs(self, capsys):
        code = cli_main(
            [
                "--scenarios", "ho-classic-otr", "ho-round-eventually-stable-coordinator",
                "--fault-models", "fault-free", "crash-stop",
                "--replicas", "2",
                "--backend", "super",
                "--quiet",
            ]
        )
        assert code == 0
