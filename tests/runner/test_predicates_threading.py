"""Tests for predicate reports threaded through the sweep pipeline (repro-sweep/4)."""

from __future__ import annotations

import csv
import json

import pytest

from repro.predicates.reports import PredicateReport
from repro.runner.__main__ import main
from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    SCHEMA,
    JsonlSink,
    RunRecord,
    RunSpec,
    SweepResult,
    execute_run,
    load_jsonl_records,
    run_sweep,
)


def monitored_spec(seed=0, **params):
    return RunSpec.make(
        "ho-round-mobile-omission",
        "fault-free",
        seed,
        n=4,
        predicates=("p_su", "p_2otr"),
        **params,
    )


class TestWireRecords:
    def test_execute_run_lifts_reports_onto_the_wire_record(self):
        record = execute_run(monitored_spec())
        assert record.predicates is not None
        assert set(record.predicates) == {"p_su", "p_2otr"}
        report = record.predicates["p_2otr"]
        assert {"holds", "first_hold_round", "longest_good_run", "satisfaction"} <= set(report)

    def test_wire_reports_rebuild_as_predicate_reports(self):
        record = execute_run(monitored_spec())
        su = PredicateReport.from_json_dict(record.predicates["p_su"])
        assert su.rounds_observed > 0
        assert su.to_json_dict() == record.predicates["p_su"]

    def test_unmonitored_runs_carry_none(self):
        record = execute_run(RunSpec.make("ho-round-mobile-omission", "fault-free", 0, n=4))
        assert record.predicates is None
        assert record.to_json_dict()["predicates"] is None

    def test_schema_is_v4(self):
        assert SCHEMA == "repro-sweep/4"
        result = SweepResult(records=[execute_run(monitored_spec())])
        assert result.to_json()["schema"] == "repro-sweep/4"

    def test_json_round_trip_preserves_reports(self):
        record = execute_run(monitored_spec())
        payload = json.loads(json.dumps(record.to_json_dict()))
        clone = RunRecord.from_json_dict(payload)
        assert clone.predicates == record.predicates
        assert clone.cell_key == record.cell_key


class TestSinks:
    def test_jsonl_sink_persists_and_reloads_reports(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_sweep([monitored_spec(seed) for seed in (0, 1)], sinks=[JsonlSink(str(path))])
        records = load_jsonl_records(str(path))
        assert len(records) == 2
        assert all(record.predicates for record in records)

    def test_csv_has_a_predicates_column(self, tmp_path):
        path = tmp_path / "sweep.csv"
        run_sweep([monitored_spec()]).write_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert "predicates" in rows[0]
        decoded = json.loads(rows[0]["predicates"])
        assert "p_su" in decoded

    def test_resume_skips_cells_and_reproduces_predicate_aggregates(self, tmp_path):
        specs = [monitored_spec(seed) for seed in (0, 1, 2)]
        path = tmp_path / "sweep.jsonl"
        full = run_sweep(specs, sinks=[JsonlSink(str(path))])
        # keep only the first line plus a torn tail, then resume
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + '{"scenario": "ho-ro')
        resumed = run_sweep(
            specs, sinks=[JsonlSink(str(path), append=True)], resume_from=str(path)
        )
        assert resumed.resumed == 1
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            full.aggregate(), sort_keys=True
        )

    def test_v2_jsonl_without_predicates_key_resumes_cleanly(self, tmp_path):
        spec = RunSpec.make("ho-round-mobile-omission", "fault-free", 0, n=4)
        record = execute_run(spec)
        legacy = record.to_json_dict()
        legacy.pop("predicates")  # what a repro-sweep/2 file looks like
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(legacy) + "\n")
        resumed = run_sweep([spec], resume_from=str(path))
        assert resumed.resumed == 1
        assert resumed.records[0].predicates is None


class TestAggregates:
    def test_groups_with_reports_gain_predicate_aggregates(self):
        result = run_sweep([monitored_spec(seed) for seed in (0, 1)])
        aggregates = result.aggregate()
        (group,) = aggregates.values()
        assert set(group["predicates"]) == {"p_su", "p_2otr"}
        p2 = group["predicates"]["p_2otr"]
        assert p2["runs"] == 2
        assert 0.0 <= p2["hold_rate"] <= 1.0

    def test_groups_without_reports_have_no_predicates_key(self):
        result = run_sweep([RunSpec.make("ho-round-mobile-omission", "fault-free", 0, n=4)])
        (group,) = result.aggregate().values()
        assert "predicates" not in group


class TestCliFlags:
    def test_predicates_flag_runs_a_monitored_grid(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--seeds", "0",
                "--predicates", "p_su,p_k", "p_2otr",
                "--stop-after-held", "5",
                "--quiet",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-sweep/4"
        (run,) = payload["runs"]
        assert set(run["predicates"]) == {"p_su", "p_k", "p_2otr"}
        assert run["params"]["predicates"] == ["p_su", "p_k", "p_2otr"]
        assert run["params"]["stop_after_held"] == 5

    def test_unknown_predicate_exits_2_with_known_list(self, capsys):
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--predicates", "p_bogus",
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "p_bogus" in err and "p_otr" in err

    @pytest.mark.parametrize(
        "names, repeat",
        [(["p_otr,p_otr"], "p_otr"), (["p_11otr", "p_1/1otr"], "p_1/1otr")],
        ids=["verbatim", "alias"],
    )
    def test_repeated_predicate_exits_2_before_any_sink_opens(
        self, tmp_path, capsys, names, repeat
    ):
        jsonl = tmp_path / "kept.jsonl"
        jsonl.write_text("an earlier run\n")
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--predicates", *names,
                "--jsonl", str(jsonl),
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"predicate {repeat!r} is named more than once" in err
        assert jsonl.read_text() == "an earlier run\n"

    @pytest.mark.parametrize(
        "scenario, flags, key, flag",
        [
            ("ho-round-mobile-omission", ["--param", "predicates=p_otr"],
             "predicates", "--predicates"),
            ("chandra-toueg", ["--param", 'predicates=["p_otr"]'], "predicates", "--predicates"),
            ("ho-round-mobile-omission",
             ["--predicates", "p_otr", "--param", 'predicates=["p_su"]'],
             "predicates", "--predicates"),
            ("ho-round-mobile-omission",
             ["--predicates", "p_su", "--param", "stop_after_held=3"],
             "stop_after_held", "--stop-after-held"),
        ],
        ids=["bare-string", "unmonitorable", "overridden", "stop-after-held"],
    )
    def test_param_cannot_set_a_flag_parameter(self, capsys, scenario, flags, key, flag):
        code = main(
            ["--scenarios", scenario, "--fault-models", "fault-free", *flags, "--quiet"]
        )
        assert code == 2
        assert f"--param {key} is not accepted; set it with {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", [[], ["--stop-after-held", "2"]], ids=["plain", "stop"])
    @pytest.mark.parametrize("names", [",", ""], ids=["comma", "empty"])
    def test_predicates_naming_no_predicate_exits_2(self, capsys, names, stop):
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--predicates", names,
                *stop,
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "names no predicate" in err and "p_otr" in err

    def test_predicates_on_a_des_scenario_exits_2(self, capsys):
        code = main(
            [
                "--scenarios", "chandra-toueg",
                "--fault-models", "fault-free",
                "--predicates", "p_su",
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "chandra-toueg" in err and "monitorable" in err

    def test_nonpositive_stop_after_held_exits_2(self, capsys):
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--predicates", "p_su",
                "--stop-after-held", "0",
                "--quiet",
            ]
        )
        assert code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_stop_after_held_requires_predicates(self, capsys):
        code = main(
            [
                "--scenarios", "ho-round-mobile-omission",
                "--fault-models", "fault-free",
                "--stop-after-held", "3",
                "--quiet",
            ]
        )
        assert code == 2
        assert "--predicates" in capsys.readouterr().err

    def test_list_names_the_predicates(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "predicates" in out
        for name in ("p_otr", "p_restr_otr", "p_su", "p_k", "p_2otr", "p_1/1otr"):
            assert f"  {name}\n" in out


class TestRegistryMetadata:
    def test_monitorable_scenarios_cover_the_ho_paths_only(self):
        monitorable = set(REGISTRY.monitorable_scenario_names())
        assert "ho-stack" in monitorable
        assert any(name.startswith("ho-round-") for name in monitorable)
        assert "chandra-toueg" not in monitorable
        assert "aguilera" not in monitorable

    def test_fault_models_list_even_after_manual_registration(self):
        """Registering a custom scenario before ``repro.workloads`` is ever
        imported must not suppress the workload import (the old emptiness
        check did, leaving the fault-model namespace empty).  Needs a fresh
        interpreter: in-process the workloads are long imported."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = (
            "from repro.runner.registry import REGISTRY\n"
            "REGISTRY.register_scenario('custom', lambda *a, **k: None)\n"
            "print(','.join(REGISTRY.fault_model_names()))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert "fault-free" in out.stdout.split(",")

