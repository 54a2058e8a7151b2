"""Tests for the scalable sweep pipeline: wire records, sinks, resume."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.runner.registry import REGISTRY
from repro.runner.sweep import (
    JsonlSink,
    RunRecord,
    RunSpec,
    SweepResult,
    build_grid,
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

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="locally registered scenarios need fork-inherited registries",
    )
    def test_no_result_crosses_the_pool_by_default(self):
        """The full result never touches pickle: the worker strips it first."""
        _register_unpicklable_scenario()
        specs = [RunSpec.make("unpicklable-result", "fault-free", s, n=3) for s in (0, 1)]
        sweep = run_sweep(specs, workers=2)
        assert all(r.error is None and r.result is None for r in sweep.records)

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
            RunSpec.make("chandra-toueg", "fault-free", 0, n=3, stabilization_time=10.0),
            RunSpec.make("chandra-toueg", "fault-free", 0, n=3, stabilization_time=60.0),
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
