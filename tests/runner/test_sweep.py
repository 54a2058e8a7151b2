"""Tests for the scenario registry and the parallel sweep executor."""

from __future__ import annotations

import json
import pickle
from dataclasses import fields

import pytest

from repro.runner import (
    REGISTRY,
    RunSpec,
    build_grid,
    run_one,
    run_sweep,
)
from repro.runner.sweep import RunRecord, execute_run
from repro.workloads import FAULT_MODELS, ScenarioResult
from repro.workloads.scenarios import STACKS


class TestRegistry:
    def test_scenarios_registered_by_workloads(self):
        assert set(STACKS) <= set(REGISTRY.scenario_names())

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            REGISTRY.scenario("no-such-stack")

    def test_run_one_returns_scenario_result(self):
        result = run_one("chandra-toueg", "fault-free", seed=0, n=3)
        assert isinstance(result, ScenarioResult)
        assert result.solved


class TestGridAndRecords:
    def test_build_grid_shape_and_order(self):
        specs = build_grid(["a", "b"], ["x"], [0, 1], n=5)
        assert [spec.key for spec in specs] == [
            ("a", "x", 5, 0),
            ("a", "x", 5, 1),
            ("b", "x", 5, 0),
            ("b", "x", 5, 1),
        ]

    def test_build_grid_multi_axis(self):
        """--ns style size sweeps and per-scenario param sets cross the grid."""
        specs = build_grid(
            ["a"], ["x"], [0], ns=[4, 8],
            param_sets=[{"rounds": 10}, {"rounds": 20}], churn=0.5,
        )
        assert [(s.n, s.kwargs) for s in specs] == [
            (4, {"churn": 0.5, "rounds": 10}),
            (4, {"churn": 0.5, "rounds": 20}),
            (8, {"churn": 0.5, "rounds": 10}),
            (8, {"churn": 0.5, "rounds": 20}),
        ]
        # cells differing only in params have distinct resume keys
        assert len({s.cell_key for s in specs}) == 4

    def test_build_grid_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            build_grid(["a"], ["x"], [0], ns=[])
        with pytest.raises(ValueError):
            build_grid(["a"], ["x"], [0], param_sets=[])

    def test_execute_run_flattens_metrics(self):
        record = execute_run(RunSpec.make("chandra-toueg", "fault-free", seed=0, n=3))
        assert record.solved and record.safe and record.terminated
        assert record.decided_processes == record.scope_size == 3
        assert record.last_decision_time is not None
        assert record.error is None
        assert record.result is not None

    def test_execute_run_captures_errors(self):
        record = execute_run(RunSpec.make("chandra-toueg", "no-such-model", seed=0))
        assert record.error is not None and "ValueError" in record.error
        assert not record.solved


    def test_run_record_stays_a_slim_picklable_wire_record(self):
        """Every field but the in-process ``result`` is JSON-able, ``result``
        neither compares nor defaults to anything, and a record pickles small
        (the old full-result records were ~1500x larger)."""
        # RunRecord is written under `from __future__ import annotations`,
        # so field types are the annotation strings.
        wire = {
            "str", "int", "bool", "float",
            "Optional[str]", "Optional[float]", "Optional[Dict[str, Any]]",
            "Tuple[Tuple[str, Any], ...]",
        }
        by_name = {f.name: f for f in fields(RunRecord)}
        result = by_name.pop("result")
        assert not result.compare and result.default is None
        assert {f.name: f.type for f in by_name.values() if f.type not in wire} == {}
        record = execute_run(RunSpec.make("chandra-toueg", "no-such-model", seed=0))
        assert len(pickle.dumps(record)) < 4096


class TestSweepExecutor:
    GRID = build_grid(list(STACKS), ["crash-stop"], seeds=[0, 1, 2, 3], n=4)

    def test_parallel_grid_matches_inline_grid(self):
        """3 scenarios x 4 seeds, in 4 workers: deterministic, seed-stable."""
        inline = run_sweep(self.GRID, workers=1)
        parallel = run_sweep(self.GRID, workers=4)
        assert parallel.workers == 4
        assert len(parallel.records) == 12
        # Records come back in grid order with identical outcomes (wall times
        # and the non-picklable-by-comparison `result` field excluded by
        # comparing the JSON projections minus wall_seconds).
        def projection(sweep):
            rows = []
            for record in sweep.records:
                row = record.to_json_dict()
                row.pop("wall_seconds")
                rows.append(row)
            return rows

        assert projection(parallel) == projection(inline)
        # Aggregates are deterministic (no wall-clock anywhere in them).
        assert parallel.aggregate() == inline.aggregate()

    def test_aggregate_contents(self):
        grid = build_grid(list(STACKS), ["fault-free"], seeds=[0, 1, 2, 3], n=4)
        sweep = run_sweep(grid, workers=4)
        aggregates = sweep.aggregate()
        # single-size grids keep the classic scenario/fault_model keys
        assert set(aggregates) == {f"{stack}/fault-free" for stack in STACKS}
        for aggregate in aggregates.values():
            assert aggregate["runs"] == 4
            assert aggregate["n"] == 4
            assert aggregate["seeds"] == [0, 1, 2, 3]
            assert aggregate["errors"] == 0
            assert aggregate["all_safe"] is True
        # Every stack solves the fault-free runs (the E8 matrix, row one).
        assert all(a["solve_rate"] == 1.0 for a in aggregates.values())

    def test_aggregate_groups_multi_size_grids_per_n(self):
        specs = build_grid(["chandra-toueg"], ["fault-free"], [0, 1], ns=[3, 4])
        aggregates = run_sweep(specs, workers=1).aggregate()
        assert set(aggregates) == {
            "chandra-toueg/fault-free/n=3",
            "chandra-toueg/fault-free/n=4",
        }
        assert aggregates["chandra-toueg/fault-free/n=3"]["n"] == 3
        assert aggregates["chandra-toueg/fault-free/n=3"]["runs"] == 2

    def test_solve_rate_excludes_errored_runs(self):
        """An infrastructure failure must not deflate the scientific solve rate."""
        specs = [
            RunSpec.make("chandra-toueg", "fault-free", 0, n=3),
            # an unknown parameter makes the runner raise
            RunSpec.make("chandra-toueg", "fault-free", 1, n=3, no_such_param=1),
        ]
        sweep = run_sweep(specs, workers=1)
        aggregate = sweep.aggregate()["chandra-toueg/fault-free"]
        assert aggregate["runs"] == 2
        assert aggregate["errors"] == 1
        assert aggregate["solved"] == 1
        assert aggregate["solve_rate"] == 1.0  # 1 solved / 1 non-errored
        assert aggregate["all_safe"] is True

    def test_solve_rate_is_none_when_every_run_errored(self):
        specs = [RunSpec.make("chandra-toueg", "fault-free", 0, no_such_param=1)]
        aggregate = run_sweep(specs, workers=1).aggregate()["chandra-toueg/fault-free"]
        assert aggregate["errors"] == 1
        assert aggregate["solve_rate"] is None
        assert aggregate["all_safe"] is None

    def test_specs_differing_only_in_params_do_not_collide(self):
        """Parallel results are indexed by grid position, not by spec fields."""
        specs = [
            RunSpec.make("aguilera", "lossy", 0, n=3, bad_period_length=40.0),
            RunSpec.make("aguilera", "lossy", 0, n=3, bad_period_length=80.0),
        ]
        parallel = run_sweep(specs, workers=2)
        inline = run_sweep(specs, workers=1)
        latencies = [record.last_decision_time for record in parallel.records]
        assert latencies == [record.last_decision_time for record in inline.records]
        # Two genuinely different runs, not one record duplicated.
        assert latencies[0] != latencies[1]

    def test_run_sweep_rejects_cells_covering_a_seed_twice(self):
        seen = []
        specs = build_grid(["ho-classic-otr"], ["lossy"], [0, 5])
        with pytest.raises(ValueError, match=r"base seeds 0 and 5 both cover seeds 5\.\.7"):
            run_sweep(specs, replicas=8, on_record=seen.append)
        assert seen == []  # rejected before anything executed
        assert len(run_sweep(specs, replicas=5).records) == 2

    def test_pool_starts_from_a_forkserver_after_a_matmul(self):
        """A float32 matmul leaves this process owning a BLAS thread pool;
        the pool must not fork it, and its records must equal inline ones."""
        import numpy as np

        from repro.runner import sweep

        square = np.ones((64, 64), dtype=np.float32)
        assert np.matmul(square, square)[0, 0] == 64
        assert sweep._POOL_CONTEXT.get_start_method() == "forkserver"
        specs = build_grid(
            ["ho-classic-otr", "ho-stack", "chandra-toueg"], ["fault-free", "lossy"], [0, 1], n=4
        )

        def projection(result):
            return [
                {k: v for k, v in record.to_json_dict().items() if k != "wall_seconds"}
                for record in result.records
            ]

        assert projection(run_sweep(specs, workers=2)) == projection(run_sweep(specs, workers=1))

    def test_streaming_callback_sees_every_record(self):
        seen = []
        run_sweep(self.GRID[:4], workers=2, on_record=seen.append)
        assert len(seen) == 4

    def test_json_summary_round_trips(self, tmp_path):
        sweep = run_sweep(self.GRID[:2], workers=1)
        path = tmp_path / "sub" / "sweep.json"
        sweep.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-sweep/4"
        assert payload["grid_size"] == 2
        assert len(payload["runs"]) == 2
        assert set(payload["aggregates"]) == {"ho-stack/crash-stop"}
        for run in payload["runs"]:
            assert run["error"] is None
            assert run["solved"] is True
