"""Tests for the scalable sweep pipeline: wire records, sinks, resume."""

from __future__ import annotations

import csv
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.runner.__main__ import main
from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    REPLICA_OUTCOME_FIELDS,
    WIRE_FIELDS,
    JsonlSink,
    RunRecord,
    RunSpec,
    SweepResult,
    _execute_indexed,
    build_grid,
    execute_run,
    load_jsonl_records,
    run_sweep,
)
from repro.workloads import ScenarioResult

GRID = build_grid(["chandra-toueg"], ["fault-free", "crash-stop"], [0, 1, 2], n=3)


# --------------------------------------------------------------------------- #
# lightweight wire records
# --------------------------------------------------------------------------- #


def _register_unpicklable_scenario():
    """A scenario whose ScenarioResult cannot cross a process boundary."""
    from repro.workloads.scenarios import run_chandra_toueg

    def runner(fault_model, n=4, seed=0, **params):
        result = run_chandra_toueg(fault_model, n=n, seed=seed, **params)
        result.extra["blob"] = lambda: None  # lambdas do not pickle
        return result

    REGISTRY.register_scenario("unpicklable-result", runner)


class TestLightweightRecords:
    def test_parallel_records_are_slim_by_default(self):
        sweep = run_sweep(GRID, workers=2)
        assert all(record.result is None for record in sweep.records)
        assert all(record.error is None for record in sweep.records)

    def test_inline_behaviour_unchanged(self):
        """workers=1 keeps the in-process result attached."""
        sweep = run_sweep(GRID[:2], workers=1)
        assert all(isinstance(r.result, ScenarioResult) for r in sweep.records)

    def test_no_result_crosses_the_pool_by_default(self):
        """The full result never touches pickle: the worker strips it first.

        Pool workers start from a fork server and so never see a scenario
        registered here; the pool's job function runs in-process instead,
        and what it returns is exactly what a worker pickles back.
        """
        _register_unpicklable_scenario()
        for index, seed in enumerate((0, 1)):
            job = (index, RunSpec.make("unpicklable-result", "fault-free", seed, n=3))
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pickle.dumps(execute_run(job[1]).result)
            returned, record = pickle.loads(pickle.dumps(_execute_indexed(job)))
            assert returned == index and record.error is None and record.result is None

    def test_parallel_matches_inline_with_slim_records(self):
        inline = run_sweep(GRID, workers=1)
        parallel = run_sweep(GRID, workers=2)
        strip = lambda sweep: [  # noqa: E731
            {k: v for k, v in r.to_json_dict().items() if k != "wall_seconds"}
            for r in sweep.records
        ]
        assert strip(parallel) == strip(inline)
        assert parallel.aggregate() == inline.aggregate()


# --------------------------------------------------------------------------- #
# record sinks
# --------------------------------------------------------------------------- #


class TestSinks:
    def test_jsonl_sink_streams_one_flushed_line_per_run(self, tmp_path):
        path = tmp_path / "out" / "sweep.jsonl"
        seen = []

        def spy(record):
            # flushed as records stream back: every already-emitted record
            # is on disk before the sweep finishes.
            seen.append(len(path.read_text().splitlines()))

        run_sweep(GRID, workers=2, sinks=[JsonlSink(str(path))], on_record=spy)
        assert seen == list(range(1, len(GRID) + 1))
        records = load_jsonl_records(str(path))
        assert {r.cell_key for r in records} == {s.cell_key for s in GRID}

    def test_jsonl_round_trip_preserves_the_wire_record(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = run_sweep(GRID[:3], workers=1, sinks=[JsonlSink(str(path))])
        reloaded = {r.cell_key: r for r in load_jsonl_records(str(path))}
        for record in sweep.records:
            loaded = reloaded[record.cell_key]
            assert loaded.to_json_dict() == record.to_json_dict()

    def test_sinks_closed_even_when_a_run_callback_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sink = JsonlSink(str(path))

        def boom(record):
            raise RuntimeError("consumer crashed")

        with pytest.raises(RuntimeError):
            run_sweep(GRID[:2], workers=1, sinks=[sink], on_record=boom)
        assert sink._handle.closed


CLI_GRID = ["--scenarios", "chandra-toueg", "--fault-models", "fault-free", "crash-stop",
            "--seeds", "0", "1", "--n", "3", "--quiet"]
SINK_FILES = {"--jsonl": "sweep.jsonl", "--json": "sweep.json", "--csv": "sweep.csv"}


def _without_wall_seconds(path):
    """A sink's records (the whole summary for ``.json``), ``wall_seconds`` dropped."""
    strip = lambda run: {k: v for k, v in run.items() if k != "wall_seconds"}  # noqa: E731
    with open(path, encoding="utf-8", newline="") as handle:
        if path.suffix == ".csv":
            return [strip(row) for row in csv.DictReader(handle)]
        if path.suffix == ".jsonl":
            return [strip(json.loads(line)) for line in handle]
        summary = strip(json.load(handle))
    summary["runs"] = [strip(run) for run in summary["runs"]]
    return summary


class TestFreshSinkFiles:
    """A non-appending sink replaces an existing regular file instead of truncating it."""

    def test_a_rerun_writes_new_files_with_the_same_records(self, tmp_path):
        argv = CLI_GRID + [arg for flag, name in SINK_FILES.items()
                           for arg in (flag, str(tmp_path / name))]
        paths = [tmp_path / name for name in SINK_FILES.values()]
        assert main(argv) == 0
        first = [_without_wall_seconds(path) for path in paths]
        # Held open, the first run's files keep their inodes from being reused.
        handles = [open(path, "rb") for path in paths]
        try:
            assert main(argv) == 0
            for handle, path in zip(handles, paths):
                old = os.fstat(handle.fileno())
                assert old.st_ino != path.stat().st_ino
                assert old.st_nlink == 0
                assert old.st_size > 0  # replaced, never truncated
        finally:
            for handle in handles:
                handle.close()
        assert [_without_wall_seconds(path) for path in paths] == first

    @pytest.mark.parametrize("sink", list(SINK_FILES))
    def test_a_device_sink_is_written_and_never_unlinked(self, tmp_path, monkeypatch, sink):
        unlink = os.unlink
        inside = os.path.realpath(tmp_path) + os.sep

        def guarded_unlink(path, *args, **kwargs):
            if not os.path.realpath(path).startswith(inside):
                pytest.fail(f"unlinked {path}")
            unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", guarded_unlink)
        assert main(CLI_GRID + [sink, os.devnull]) == 0

    @pytest.mark.parametrize("sink", list(SINK_FILES))
    def test_a_refused_unlink_falls_back_to_truncating(self, tmp_path, monkeypatch, sink):
        path = tmp_path / SINK_FILES[sink]
        path.write_text("a previous run's output\n" * 10_000)
        inode = path.stat().st_ino

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "unlink", refuse)
        assert main(CLI_GRID + [sink, str(path)]) == 0
        assert path.stat().st_ino == inode
        assert "a previous run" not in path.read_text()
        written = _without_wall_seconds(path)
        assert len(written["runs"] if sink == "--json" else written) == 4

    @pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                        reason="root may write a read-only file")
    @pytest.mark.parametrize("sink", list(SINK_FILES))
    def test_a_read_only_sink_exits_2_and_keeps_its_content(self, tmp_path, capsys, sink):
        path = tmp_path / SINK_FILES[sink]
        path.write_text("a protected run\n")
        path.chmod(0o444)
        assert main(CLI_GRID + [sink, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
        assert path.read_text() == "a protected run\n"

    @pytest.mark.parametrize("sink", list(SINK_FILES))
    def test_a_file_it_may_not_write_is_never_unlinked(self, tmp_path, monkeypatch, sink):
        """A file ``os.access`` calls unwritable is opened in place, as before."""
        path = tmp_path / SINK_FILES[sink]
        path.write_text("a previous run's output\n")
        inode = path.stat().st_ino
        access = os.access

        def no_write_access(target, mode, *args, **kwargs):
            return False if mode == os.W_OK else access(target, mode, *args, **kwargs)

        def fail_unlink(target, *args, **kwargs):
            pytest.fail(f"unlinked {target}")

        monkeypatch.setattr(os, "access", no_write_access)
        monkeypatch.setattr(os, "unlink", fail_unlink)
        assert main(CLI_GRID + [sink, str(path)]) == 0
        assert path.stat().st_ino == inode
        assert "a previous run" not in path.read_text()


# --------------------------------------------------------------------------- #
# resume from a partial JSONL
# --------------------------------------------------------------------------- #


class TestResume:
    def test_resume_skips_completed_cells_and_merges(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(GRID, workers=1)

        # simulate a killed grid: only the first 3 cells reached the JSONL,
        # plus a torn final line from the dying process.
        sink = JsonlSink(str(path))
        for record in uninterrupted.records[:3]:
            sink.write(record)
        sink._handle.write('{"scenario": "chandra-toueg", "fault_mod')  # torn
        sink.close()

        executed = []
        resumed = run_sweep(
            GRID,
            workers=2,
            on_record=executed.append,
            sinks=[JsonlSink(str(path), append=True)],
            resume_from=str(path),
        )
        assert resumed.resumed == 3
        assert len(executed) == len(GRID) - 3
        # the merged sweep reproduces the uninterrupted grid byte-identically
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            uninterrupted.aggregate(), sort_keys=True
        )
        # and the resumed-into JSONL now covers the whole grid
        assert {r.cell_key for r in load_jsonl_records(str(path))} == {
            s.cell_key for s in GRID
        }

    def test_resume_skips_a_line_that_is_not_a_whole_record(self, tmp_path):
        """Valid JSON missing wire fields re-executes the cell, like a torn tail."""
        path = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(GRID[:2], workers=1)
        sink = JsonlSink(str(path))
        sink.write(uninterrupted.records[0])
        sink._handle.write('{"scenario": "chandra-toueg"}\n')
        sink.close()

        assert [r.cell_key for r in load_jsonl_records(str(path))] == [GRID[0].cell_key]
        resumed = run_sweep(GRID[:2], workers=1, resume_from=str(path))
        assert resumed.resumed == 1
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            uninterrupted.aggregate(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("params", [1, 2]),
            ("seed", "zero"),
            ("n", None),
            ("replicas", [1]),
            ("replicas", {"count": "x"}),
        ],
        ids=["params-list", "seed-str", "n-null", "replicas-list", "replicas-count-str"],
    )
    def test_resume_skips_a_line_with_a_wrong_typed_field(self, tmp_path, field, value):
        """A whole record whose identity does not type-check re-executes too."""
        path = tmp_path / "sweep.jsonl"
        uninterrupted = run_sweep(GRID[:2], workers=1)
        sink = JsonlSink(str(path))
        sink.write(uninterrupted.records[0])
        bad = {**uninterrupted.records[1].to_json_dict(), field: value}
        sink._handle.write(json.dumps(bad) + "\n")
        sink.close()

        assert [r.cell_key for r in load_jsonl_records(str(path))] == [GRID[0].cell_key]
        executed = []
        resumed = run_sweep(GRID[:2], workers=1, on_record=executed.append,
                            resume_from=str(path))
        assert resumed.resumed == 1
        assert [r.cell_key for r in executed] == [GRID[1].cell_key]
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            uninterrupted.aggregate(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda replicas: replicas.update(outcomds=replicas.pop("outcomes")),
            lambda replicas: replicas.update(outcomes=[1, 2]),
            lambda replicas: replicas["outcomes"][0].update(messages_sent=None),
        ],
        ids=["outcomes-key-flipped", "outcomes-not-mappings", "messages-sent-null"],
    )
    def test_resume_skips_a_batched_line_without_its_replicas(self, tmp_path, damage):
        """A batched record that lost its outcomes re-executes: it must neither
        resume as completed-but-errored replicas nor kill the aggregation."""
        path = tmp_path / "sweep.jsonl"
        grid = build_grid(["ho-classic-otr"], ["fault-free", "lossy"], [0], n=4)
        uninterrupted = run_sweep(grid, replicas=2)
        sink = JsonlSink(str(path))
        sink.write(uninterrupted.records[0])
        bad = json.loads(json.dumps(uninterrupted.records[1].to_json_dict()))
        damage(bad["replicas"])
        sink._handle.write(json.dumps(bad) + "\n")
        sink.close()

        assert [r.cell_key for r in load_jsonl_records(str(path))] == [
            uninterrupted.records[0].cell_key
        ]
        resumed = run_sweep(grid, replicas=2, resume_from=str(path))
        assert resumed.resumed == 1
        assert json.dumps(resumed.aggregate(), sort_keys=True) == json.dumps(
            uninterrupted.aggregate(), sort_keys=True
        )

    def test_resume_retries_errored_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        good = run_sweep(GRID[:1], workers=1).records[0]
        errored = RunRecord(
            scenario=GRID[1].scenario,
            fault_model=GRID[1].fault_model,
            seed=GRID[1].seed,
            n=GRID[1].n,
            solved=False,
            safe=False,
            terminated=False,
            decided_processes=0,
            scope_size=0,
            first_decision_time=None,
            last_decision_time=None,
            messages_sent=0,
            wall_seconds=0.1,
            error="OSError: worker lost",
        )
        sink = JsonlSink(str(path))
        sink.write(good)
        sink.write(errored)
        sink.close()

        executed = []
        resumed = run_sweep(GRID[:2], workers=1, on_record=executed.append,
                            resume_from=str(path))
        assert resumed.resumed == 1
        assert [r.cell_key for r in executed] == [GRID[1].cell_key]
        assert resumed.records[1].error is None

    def test_resume_ignores_records_of_other_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        other = build_grid(["chandra-toueg"], ["lossy"], [9], n=3)
        sink = JsonlSink(str(path))
        for record in run_sweep(other, workers=1).records:
            sink.write(record)
        sink.close()
        resumed = run_sweep(GRID[:2], workers=1, resume_from=str(path))
        assert resumed.resumed == 0
        assert len(resumed.records) == 2

    def test_resume_from_missing_file_runs_everything(self, tmp_path):
        resumed = run_sweep(GRID[:2], workers=1, resume_from=str(tmp_path / "nope"))
        assert resumed.resumed == 0
        assert len(resumed.records) == 2

    def test_params_distinguish_resume_cells(self, tmp_path):
        """Cells differing only in extra params never collide on resume."""
        path = tmp_path / "sweep.jsonl"
        specs = [
            RunSpec.make("aguilera", "lossy", 0, n=3, bad_period_length=40.0),
            RunSpec.make("aguilera", "lossy", 0, n=3, bad_period_length=80.0),
        ]
        sink = JsonlSink(str(path))
        sink.write(run_sweep(specs[:1], workers=1).records[0])
        sink.close()
        resumed = run_sweep(specs, workers=1, resume_from=str(path))
        assert resumed.resumed == 1
        assert resumed.records[0].params == specs[0].params
        assert resumed.records[1].params == specs[1].params
        assert (
            resumed.records[0].last_decision_time
            != resumed.records[1].last_decision_time
        )


class TestNonJsonParams:
    def test_sinks_and_summary_tolerate_non_json_params(self, tmp_path):
        """A frozenset-valued param must not abort a sweep mid-stream."""
        spec = RunSpec.make(
            "chandra-toueg", "fault-free", 0, n=3, weird=frozenset({1, 2})
        )
        jsonl = tmp_path / "sweep.jsonl"
        sweep = run_sweep([spec], workers=1, sinks=[JsonlSink(str(jsonl))])
        sweep.write_json(str(tmp_path / "summary.json"))
        sweep.write_csv(str(tmp_path / "records.csv"))
        assert len(jsonl.read_text().splitlines()) == 1


# --------------------------------------------------------------------------- #
# the wire schema: one field list behind every sink
# --------------------------------------------------------------------------- #

OPTIONAL_FIELDS = ("params", "error", "predicates", "replicas")
REQUIRED_FIELDS = [key for key in WIRE_FIELDS if key not in OPTIONAL_FIELDS]
CELL = RunSpec.make("ho-classic-otr", "lossy", 0)
WIRE_KINDS = {
    "plain": CELL,
    "batched": replace(CELL, replicas=3),
    "errored": RunSpec.make("ho-classic-otr", "lossy", 0, no_such_param=1),
    "monitored": RunSpec.make("ho-classic-otr", "lossy", 0, predicates=("p_su", "p_k")),
}


def _line_without(record, *keys):
    payload = record.to_json_dict()
    for key in keys:
        del payload[key]
    return json.dumps(payload)


class TestWireSchema:
    def test_every_sink_follows_the_wire_field_order(self, tmp_path):
        argv = ["--scenarios", "ho-classic-otr", "chandra-toueg", "--fault-models", "lossy",
                "--seeds", "0", "--replicas", "2", "--quiet"]
        argv += [arg for flag, name in SINK_FILES.items() for arg in (flag, str(tmp_path / name))]
        assert main(argv) == 0
        lines = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
        runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
        with open(tmp_path / "sweep.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == list(WIRE_FIELDS)
        for entry in lines + runs:
            assert list(entry) == list(WIRE_FIELDS)
            for outcome in entry["replicas"]["outcomes"]:
                assert list(outcome) == list(REPLICA_OUTCOME_FIELDS)
        for spec in WIRE_KINDS.values():
            assert list(execute_run(spec).to_json_dict()) == list(WIRE_FIELDS)

    @pytest.mark.parametrize("kind", list(WIRE_KINDS))
    def test_a_record_round_trips_through_json(self, kind):
        record = execute_run(WIRE_KINDS[kind])
        assert (record.error is not None) == (kind == "errored")
        assert (record.replicas is not None) == (kind == "batched")
        assert (record.predicates is not None) == (kind == "monitored")
        line = json.dumps(record.to_json_dict())
        loaded = RunRecord.from_json_dict(json.loads(line))
        # Compared on the wire: a tuple-valued param reloads as a list.
        assert json.dumps(loaded.to_json_dict()) == line
        assert loaded.cell_key == record.cell_key

    @pytest.mark.parametrize("key", REQUIRED_FIELDS)
    def test_a_line_missing_a_required_field_is_skipped(self, tmp_path, key):
        record = execute_run(CELL)
        other = execute_run(replace(CELL, seed=1))
        path = tmp_path / "sweep.jsonl"
        path.write_text(_line_without(record) + "\n" + _line_without(other, key) + "\n")
        assert [r.cell_key for r in load_jsonl_records(str(path))] == [record.cell_key]

    @pytest.mark.parametrize("keys", [(key,) for key in OPTIONAL_FIELDS] + [OPTIONAL_FIELDS])
    def test_a_line_missing_only_optional_fields_loads(self, tmp_path, keys):
        record = execute_run(CELL)
        path = tmp_path / "sweep.jsonl"
        path.write_text(_line_without(record, *keys) + "\n")
        (loaded,) = load_jsonl_records(str(path))
        assert loaded.to_json_dict() == record.to_json_dict()
