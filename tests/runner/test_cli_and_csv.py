"""Tests for the runner CLI: --list, --csv, axis validation, multi-axis grids."""

from __future__ import annotations

import csv
import json
import os

import pytest

from repro.runner.__main__ import main
from repro.runner.registry import REGISTRY
from repro.runner.sweep import RunSpec, SweepResult, build_grid, execute_run


def run_small_sweep():
    specs = [
        RunSpec.make("ho-round-mobile-omission", "fault-free", seed, n=4)
        for seed in (0, 1)
    ]
    return SweepResult(records=[execute_run(spec) for spec in specs])


class TestCsvExport:
    def test_write_csv_matches_json_records(self, tmp_path):
        result = run_small_sweep()
        path = tmp_path / "out" / "sweep.csv"
        result.write_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.records)
        for row, record in zip(rows, result.records):
            expected = record.to_json_dict()
            assert row["scenario"] == expected["scenario"]
            assert int(row["seed"]) == expected["seed"]
            assert row["solved"] == str(expected["solved"])
            assert row["error"] == ""
            assert row["params"] == "{}"
        assert list(rows[0]) == list(SweepResult.CSV_FIELDS)


class TestCli:
    def test_list_prints_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:" in out
        assert "measurements:" not in out
        listed = {line.strip().split("  ")[0] for line in out.splitlines() if line.startswith("  ")}
        for name in REGISTRY.scenario_names():
            assert name in listed
        # monitorable/batchable scenarios are marked so --predicates and
        # --replicas targets are obvious
        batchable = set(REGISTRY.batchable_scenario_names())
        for name in REGISTRY.monitorable_scenario_names():
            if name in batchable:
                assert f"  {name}  [monitorable, batchable]\n" in out
            else:
                assert f"  {name}  [monitorable]\n" in out

    def test_sweep_writes_csv_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "--scenarios", "ho-round-rotating-partition",
                "--fault-models", "fault-free",
                "--seeds", "0",
                "--quiet",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert json_path.exists()
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "ho-round-rotating-partition"
        assert rows[0]["safe"] == "True"

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["--scenarios", "no-such-scenario", "--quiet"]) == 2

    def test_list_includes_fault_models(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fault models:" in out
        for name in REGISTRY.fault_model_names():
            assert f"  {name}\n" in out

    def test_unknown_fault_model_exits_2_with_known_list(self, capsys):
        """A typo like crash-recover must not become a grid of errored runs."""
        code = main(
            [
                "--scenarios", "chandra-toueg",
                "--fault-models", "fault-free", "crash-recover",
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault model(s) crash-recover" in err
        for name in REGISTRY.fault_model_names():
            assert name in err

    def test_multi_axis_flags_expand_the_grid(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "--scenarios", "chandra-toueg",
                "--fault-models", "fault-free",
                "--seeds", "0",
                "--ns", "3", "4",
                "--param", "bad_period_length=40.0",
                "--quiet",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["grid_size"] == 2
        assert sorted(run["n"] for run in payload["runs"]) == [3, 4]
        assert all(
            run["params"] == {"bad_period_length": 40.0} for run in payload["runs"]
        )
        assert set(payload["aggregates"]) == {
            "chandra-toueg/fault-free/n=3",
            "chandra-toueg/fault-free/n=4",
        }

    @pytest.mark.parametrize(
        "flags, named",
        [(["--n", "0"], "0"), (["--ns", "4", "-3"], "-3")],
        ids=["n", "ns"],
    )
    def test_non_positive_size_exits_2_naming_the_values(self, capsys, flags, named):
        """A size below 1 must not become a grid of errored runs either."""
        code = main(
            ["--scenarios", "ho-classic-otr", "--fault-models", "fault-free", "--quiet", *flags]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"system sizes must be at least 1, got {named}" in captured.err
        assert "sweep:" not in captured.out

    def test_build_grid_rejects_a_non_positive_size(self):
        with pytest.raises(ValueError, match=r"at least 1, got 0, -2$"):
            build_grid(["ho-classic-otr"], ["fault-free"], [0], ns=[4, 0, -2])

    @pytest.mark.parametrize(
        "entry, flag",
        [
            ("n=9", "--n"),
            ("ns=[9]", "--ns"),
            ("seed=3", "--seeds"),
            ("seeds=[1]", "--seeds"),
            ("scenario=x", "--scenarios"),
            ("fault_model=lossy", "--fault-models"),
            ("replicas=2", "--replicas"),
            ("backend=super", "--backend"),
        ],
    )
    def test_param_naming_a_grid_axis_exits_2_naming_its_flag(self, capsys, entry, flag):
        """Not an ignored size, a TypeError traceback or a grid of errored cells."""
        code = main(
            ["--scenarios", "ho-classic-otr", "--fault-models", "fault-free", "--quiet",
             "--n", "4", "--param", entry]
        )
        assert code == 2
        captured = capsys.readouterr()
        key = entry.partition("=")[0]
        assert f"{key!r} is a grid axis, not a scenario parameter; set it with {flag}" in captured.err
        assert "sweep:" not in captured.out

    def test_build_grid_rejects_a_grid_axis_in_an_overlay(self):
        with pytest.raises(ValueError, match="'seed' is a grid axis"):
            build_grid(["ho-classic-otr"], ["fault-free"], [0],
                       param_sets=[{"rounds": 10}, {"rounds": 20, "seed": 3}])
        with pytest.raises(ValueError, match="'backend' is a grid axis"):
            build_grid(["ho-classic-otr"], ["fault-free"], [0], backend="super")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--seeds", "0", "1", "--replicas", "8"],
             "base seeds 0 and 1 both cover seeds 1..7"),
            (["--seeds", "0", "0"], "base seeds 0 and 0 both cover seed 0"),
            (["--scenarios", "ho-classic-otr", "ho-classic-otr"], "both cover seed 0"),
            (["--fault-models", "lossy", "lossy"], "both cover seed 0"),
            (["--ns", "4", "4"], "both cover seed 0"),
        ],
        ids=["overlapping-ranges", "seed", "scenario", "fault-model", "size"],
    )
    def test_a_seed_covered_twice_exits_2_and_leaves_the_jsonl_alone(
        self, tmp_path, capsys, flags, named
    ):
        """Not a silently inflated sample (``replicas: 16`` with 7 duplicates)."""
        jsonl = tmp_path / "sweep.jsonl"
        jsonl.write_text("a previous grid's records\n")
        base = ["--scenarios", "ho-classic-otr", "--fault-models", "lossy", "--quiet",
                "--jsonl", str(jsonl)]
        assert main(base + flags) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "space base seeds at least" in captured.err
        assert "sweep:" not in captured.out
        assert jsonl.read_text() == "a previous grid's records\n"

    def test_adjacent_seed_ranges_run(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(
            ["--scenarios", "ho-classic-otr", "--fault-models", "lossy", "--quiet",
             "--seeds", "0", "8", "--replicas", "8", "--json", str(json_path)]
        )
        assert code == 0
        aggregate = json.loads(json_path.read_text())["aggregates"]["ho-classic-otr/lossy"]
        assert aggregate["replicas"] == 16

    def test_malformed_param_exits_2(self, capsys):
        assert main(["--param", "no-equals-sign", "--quiet"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_jsonl_then_resume_skips_completed_cells(self, tmp_path, capsys):
        jsonl = tmp_path / "sweep.jsonl"
        base = [
            "--scenarios", "chandra-toueg",
            "--fault-models", "fault-free",
            "--quiet",
            "--jsonl", str(jsonl),
        ]
        assert main(base + ["--seeds", "0"]) == 0
        assert len(jsonl.read_text().splitlines()) == 1
        # grow the grid and resume into the same file: only the new cell runs
        code = main(base + ["--seeds", "0", "1", "--resume-from", str(jsonl)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cell(s) resumed" in out
        assert len(jsonl.read_text().splitlines()) == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("sink", ["--jsonl", "--json", "--csv"])
    def test_a_sink_that_cannot_be_written_exits_2_naming_it(self, capsys, sink):
        """A full disk is a one-line usage error, not a traceback or a cell error."""
        code = main(["--scenarios", "ho-classic-otr", "--fault-models", "fault-free",
                     "--seeds", "0", "1", "--quiet", sink, "/dev/full"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full: ")
        assert len(err.strip().splitlines()) == 1

    RESUMABLE = ["--scenarios", "chandra-toueg", "--fault-models", "fault-free", "--quiet"]

    def test_a_hard_linked_jsonl_leaves_the_resume_file_intact(self, tmp_path, capsys):
        """``--jsonl b --resume-from a`` with b a hard link of a resumes a's cells.

        The two names have different realpaths, so this is no append; a
        truncating open of b would empty a before its records load.
        """
        resume, alias = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.RESUMABLE + ["--seeds", "0", "--jsonl", str(resume)]) == 0
        before = resume.read_text()
        os.link(resume, alias)
        code = main(self.RESUMABLE + ["--seeds", "0", "1", "--jsonl", str(alias),
                                      "--resume-from", str(resume)])
        assert code == 0
        assert "1 cell(s) resumed" in capsys.readouterr().out
        assert resume.read_text() == before
        assert len(alias.read_text().splitlines()) == 1

    def test_a_symlinked_jsonl_appends_to_its_resume_target(self, tmp_path, capsys):
        target, link = tmp_path / "sweep.jsonl", tmp_path / "link.jsonl"
        assert main(self.RESUMABLE + ["--seeds", "0", "--jsonl", str(target)]) == 0
        before = target.read_text()
        link.symlink_to(target)
        code = main(self.RESUMABLE + ["--seeds", "0", "1", "--jsonl", str(link),
                                      "--resume-from", str(target)])
        assert code == 0
        assert "1 cell(s) resumed" in capsys.readouterr().out
        assert link.is_symlink()
        assert target.read_text().startswith(before)
        assert len(target.read_text().splitlines()) == 2

    def test_a_symlinked_summary_is_written_through_the_link(self, tmp_path):
        target, link = tmp_path / "real.json", tmp_path / "sweep.json"
        target.write_text("a previous summary\n")
        link.symlink_to(target)
        assert main(self.RESUMABLE + ["--seeds", "0", "--json", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["grid_size"] == 1
