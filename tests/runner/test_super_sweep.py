"""The super-batch sweep path: the whole grid as one schedulable unit.

``run_sweep(backend="super")`` builds a CellPlan per cell through the
registry and hands every batch to the super backend in one call.  These
tests pin the records equal to the scalar reference, the backend labels
(``super`` / ``super:scalar-fallback (reason)``), the single-process
constraint (library ValueError and CLI exit 2), and the CellPlan builder
registry itself.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy
from repro.rounds.backend import CellPlan
from repro.runner.__main__ import main as cli_main
from repro.runner.registry import REGISTRY
from repro.runner.sweep import BACKEND_CHOICES, build_grid, run_sweep

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")

GRID = dict(
    scenarios=["ho-classic-otr", "ho-round-mobile-omission", "ho-round-bursty-loss"],
    fault_models=["fault-free", "crash-stop"],
    seeds=[0],
)


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

    @needs_numpy
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
        if have_numpy():
            assert {r.replicas["backend"] for r in sup.records} == {"super"}

    @needs_numpy
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
        if have_numpy():
            assert labels[("ho-step-down-otr", "fault-free")] == "step-batch"
            assert labels[("ho-classic-otr", "fault-free")] == "super"
            assert labels[("ho-classic-otr", "lossy")] == "super"
        else:
            assert labels[("ho-step-down-otr", "fault-free")].startswith(
                "step-batch:scalar-fallback ("
            )
            assert labels[("ho-classic-otr", "fault-free")].startswith(
                "super:scalar-fallback ("
            )
        assert labels[("ho-step-down-otr", "lossy")].startswith(
            "step-batch:scalar-fallback ("
        )

    def test_declined_cell_is_labelled_with_the_hop_batch_takes(self, monkeypatch):
        """A cell ``super`` declines runs on the scalar reference, exactly
        where ``batch`` sends it, so the two labels differ only in the tier."""
        monkeypatch.setattr("repro._optional.NUMPY", None)
        specs = build_grid(
            scenarios=["ho-classic-otr"], fault_models=["fault-free"], seeds=[0], ns=[4]
        )
        sup = run_sweep(specs, replicas=2, backend="super").records[0]
        per_cell = run_sweep(specs, replicas=2, backend="batch").records[0]
        assert sup.replicas["backend"].startswith("super:scalar-fallback (numpy unavailable")
        assert sup.replicas["backend"].split(":", 1)[1] == (
            per_cell.replicas["backend"].split(":", 1)[1]
        )


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
