"""The sweep's ``replicas=`` axis: batched cells vs R independent scalar runs."""

from __future__ import annotations

import json

import pytest

from repro.runner.__main__ import main
from repro.runner.sweep import (
    JsonlSink,
    RunSpec,
    build_grid,
    execute_run,
    run_sweep,
)


def strip_wall(payload):
    if isinstance(payload, dict):
        return {k: strip_wall(v) for k, v in payload.items() if k != "wall_seconds"}
    if isinstance(payload, list):
        return [strip_wall(item) for item in payload]
    return payload


def strip_backend(payload):
    if isinstance(payload, dict):
        return {k: strip_backend(v) for k, v in payload.items() if k != "backend"}
    if isinstance(payload, list):
        return [strip_backend(item) for item in payload]
    return payload


GRID = dict(
    scenarios=["ho-classic-otr", "ho-classic-lv"],
    fault_models=["fault-free", "crash-stop", "lossy"],
)


class TestBatchedCells:
    def test_batched_cell_equals_r_scalar_runs_same_seeds(self):
        """The regression pin: a batched run == R scalar runs, same seeds."""
        specs = build_grid(seeds=[3], n=5, **GRID)
        batched = run_sweep(specs, replicas=5, backend="auto")
        reference = run_sweep(specs, replicas=5, backend="scalar")
        a = strip_backend(strip_wall([r.to_json_dict() for r in batched.records]))
        b = strip_backend(strip_wall([r.to_json_dict() for r in reference.records]))
        assert a == b
        # and the per-replica outcomes are exactly the individual runs:
        for record in reference.records:
            assert record.replicas["backend"] == "scalar"
            for i, outcome in enumerate(record.replicas["outcomes"]):
                single = execute_run(
                    RunSpec.make(record.scenario, record.fault_model, 3 + i, n=5)
                )
                assert outcome["seed"] == 3 + i
                assert outcome["solved"] == single.solved
                assert outcome["last_decision_time"] == single.last_decision_time
                assert outcome["messages_sent"] == single.messages_sent

    def test_monitored_batched_cell_matches_scalar_loop(self):
        specs = [
            RunSpec.make(
                "ho-classic-otr", "lossy", 0, n=5,
                predicates=("p_su", "p_k", "p_2otr"), stop_after_held=6,
                run_full_horizon=True,
            )
        ]
        batched = run_sweep(specs, replicas=4, backend="auto")
        reference = run_sweep(specs, replicas=4, backend="scalar")
        assert strip_backend(strip_wall(batched.records[0].to_json_dict())) == \
            strip_backend(strip_wall(reference.records[0].to_json_dict()))
        outcomes = batched.records[0].replicas["outcomes"]
        assert all(set(o["predicates"]) == {"p_su", "p_k", "p_2otr"} for o in outcomes)

    def test_aggregates_match_the_unbatched_grid(self):
        """Replica-granular aggregation: batched and plain sweeps agree."""
        specs = build_grid(seeds=[0], n=4, **GRID)
        batched = run_sweep(specs, replicas=4)
        plain = run_sweep(build_grid(seeds=[0, 1, 2, 3], n=4, **GRID))
        batched_aggregate = batched.aggregate()
        plain_aggregate = plain.aggregate()
        for name, group in plain_aggregate.items():
            for key in ("errors", "solved", "solve_rate", "all_safe",
                        "mean_last_decision_time", "max_last_decision_time",
                        "total_messages_sent"):
                assert batched_aggregate[name][key] == group[key], (name, key)
            assert batched_aggregate[name]["replicas"] == 4
            dispersion = batched_aggregate[name]["replica_dispersion"]
            assert dispersion["cells"] == 1
            assert 0.0 <= dispersion["solve_rate"]["min"] <= dispersion["solve_rate"]["max"] <= 1.0

    def test_non_batchable_scenarios_fall_back_to_the_scalar_loop(self):
        # The step-level ho-stack scenario registers no cell builder (its
        # simulator is event-driven, not lockstep rounds).
        scenario = "ho-stack"
        specs = [RunSpec.make(scenario, "fault-free", 0, n=4)]
        result = run_sweep(specs, replicas=3, backend="auto")
        record = result.records[0]
        assert record.replicas["backend"] == "scalar-loop"
        singles = [
            execute_run(RunSpec.make(scenario, "fault-free", s, n=4))
            for s in range(3)
        ]
        assert [o["solved"] for o in record.replicas["outcomes"]] == [
            s.solved for s in singles
        ]
        assert record.messages_sent == sum(s.messages_sent for s in singles)

    def test_errored_cells_aggregate_identically_across_backends(self):
        """A failing batched cell must be as visible as R failed scalar runs."""
        # stop_after_held without predicates raises inside the builder.
        specs = [
            RunSpec.make("ho-classic-otr", "fault-free", 0, n=4, stop_after_held=3)
        ]
        via_batch = run_sweep(specs, replicas=3, backend="auto")
        via_scalar = run_sweep(specs, replicas=3, backend="scalar")
        assert via_batch.records[0].error and via_scalar.records[0].error
        batch_aggregate = via_batch.aggregate()["ho-classic-otr/fault-free"]
        scalar_aggregate = via_scalar.aggregate()["ho-classic-otr/fault-free"]
        assert batch_aggregate["errors"] == scalar_aggregate["errors"] == 3
        assert batch_aggregate == scalar_aggregate

    def test_backend_field_records_what_actually_executed(self):
        specs = build_grid(seeds=[0], n=4, scenarios=["ho-classic-otr"],
                           fault_models=["fault-free"])
        (record,) = run_sweep(specs, replicas=2, backend="auto").records
        label = record.replicas["backend"]
        assert label == "batch"

    def test_replicas_validation(self):
        specs = build_grid(seeds=[0], n=4, scenarios=["ho-classic-otr"],
                           fault_models=["fault-free"])
        with pytest.raises(ValueError, match="replicas"):
            run_sweep(specs, replicas=0)
        with pytest.raises(ValueError, match="backend"):
            run_sweep(specs, replicas=2, backend="gpu")


class TestBatchedWire:
    def test_jsonl_round_trip_and_resume(self, tmp_path):
        from repro.runner.sweep import load_jsonl_records

        path = str(tmp_path / "cells.jsonl")
        specs = build_grid(seeds=[0], n=4, scenarios=["ho-classic-otr"],
                           fault_models=["fault-free", "lossy"])
        full = run_sweep(specs, replicas=3, sinks=[JsonlSink(path)])
        reloaded = load_jsonl_records(path)
        assert {r.cell_key for r in reloaded} == {r.cell_key for r in full.records}
        assert all(r.replicas["count"] == 3 for r in reloaded)
        # resume skips every completed batched cell
        executed = []
        resumed = run_sweep(
            specs, replicas=3, resume_from=path, on_record=executed.append
        )
        assert resumed.resumed == 2 and executed == []
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            full.aggregate(), sort_keys=True
        )

    def test_batched_and_plain_cells_have_distinct_keys(self):
        plain = RunSpec.make("ho-classic-otr", "fault-free", 0, n=4)
        from dataclasses import replace

        batched = replace(plain, replicas=4)
        assert plain.cell_key != batched.cell_key

    def test_csv_carries_the_replica_payload(self, tmp_path):
        specs = build_grid(seeds=[0], n=4, scenarios=["ho-classic-otr"],
                           fault_models=["fault-free"])
        result = run_sweep(specs, replicas=2)
        path = tmp_path / "cells.csv"
        result.write_csv(str(path))
        import csv

        with open(path, newline="") as handle:
            (row,) = list(csv.DictReader(handle))
        payload = json.loads(row["replicas"])
        assert payload["count"] == 2 and len(payload["outcomes"]) == 2


class TestCliFlags:
    def test_replicas_and_backend_flags(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "--scenarios", "ho-classic-otr",
                "--fault-models", "fault-free", "lossy",
                "--seeds", "0",
                "--replicas", "4",
                "--backend", "auto",
                "--quiet",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x 4 replica(s) [auto backend]" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-sweep/4"
        for run in payload["runs"]:
            assert run["replicas"]["count"] == 4
            assert len(run["replicas"]["outcomes"]) == 4
        assert any(
            "replica_dispersion" in group for group in payload["aggregates"].values()
        )

    def test_invalid_replicas_exits_2(self, capsys):
        assert main(["--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_invalid_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "gpu"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("backend", ["auto", "super"])
    def test_one_parameter_surface_on_every_backend(self, tmp_path, backend):
        """A param no builder takes errors on the reference exactly as elsewhere."""

        def sweep(choice):
            path = tmp_path / f"{choice}.json"
            code = main([
                "--scenarios", "ho-classic-otr", "ho-step-down-otr",
                "--fault-models", "lossy", "--seeds", "0", "--replicas", "2",
                "--param", "trace=true", "--backend", choice,
                "--quiet", "--json", str(path),
            ])
            return code, strip_backend(strip_wall(json.loads(path.read_text())))

        code, reference = sweep("scalar")
        assert code == 1
        assert all("unexpected keyword argument" in run["error"] for run in reference["runs"])
        assert sweep(backend) == (code, reference)


class TestVectorisedBackendEngages:
    def test_classic_cells_vectorise_under_the_batch_backend(self):
        from repro.rounds.backend import get_backend

        backend = get_backend("batch")
        specs = build_grid(seeds=[0], n=4, scenarios=["ho-classic-uv"],
                           fault_models=["crash-stop"])
        run_sweep(specs, replicas=4, backend="batch")
        assert backend.last_fallback_reason is None
