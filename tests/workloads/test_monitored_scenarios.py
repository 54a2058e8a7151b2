"""Tests for streaming predicate monitoring inside the scenario runners."""

from __future__ import annotations

import pytest

from repro.runner.sweep import run_one
from repro.workloads.scenarios import run_ho_stack


def run_round(fault_model, **params):
    return run_one("ho-round-mobile-omission", fault_model, **params)


class TestRoundScenarioMonitoring:
    def test_predicates_param_attaches_reports(self):
        result = run_round(
            "fault-free", n=4, seed=0, predicates=("p_su", "p_k", "p_2otr")
        )
        reports = result.extra["predicate_reports"]
        assert set(reports) == {"p_su", "p_k", "p_2otr"}
        for report in reports.values():
            assert report["rounds_observed"] > 0

    def test_no_predicates_means_no_reports(self):
        result = run_round("fault-free", n=4, seed=0)
        assert "predicate_reports" not in result.extra

    def test_stop_after_held_requires_predicates(self):
        with pytest.raises(ValueError, match="stop_after_held"):
            run_round("fault-free", n=4, seed=0, stop_after_held=3)

    def test_stop_after_held_cuts_the_full_horizon(self):
        slow = run_round(
            "fault-free", n=4, seed=0, rounds=60, stabilize_round=20,
            predicates=("p_su",), run_full_horizon=True,
        )
        fast = run_round(
            "fault-free", n=4, seed=0, rounds=60, stabilize_round=20,
            predicates=("p_su",), stop_after_held=4, run_full_horizon=True,
        )
        slow_rounds = slow.extra["predicate_reports"]["p_su"]["rounds_observed"]
        fast_rounds = fast.extra["predicate_reports"]["p_su"]["rounds_observed"]
        assert slow_rounds == 60
        assert fast.extra["stopped_early"]
        assert fast_rounds < slow_rounds
        # the run ended right as the streak completed: 4 good rounds from
        # stabilisation at round 20, plus engine-stop granularity of a round
        assert fast_rounds <= 20 + 4 + 1

    def test_scope_excludes_the_crashed_process_from_pi0(self):
        """Under crash-stop the monitors quantify over the surviving scope,
        so the good period after stabilisation is visible despite the dead
        process never appearing in any heard-of set."""
        result = run_round(
            "crash-stop", n=4, seed=0, rounds=60, stabilize_round=20,
            predicates=("p_su",), run_full_horizon=True,
        )
        report = result.extra["predicate_reports"]["p_su"]
        assert report["longest_good_run"] >= 60 - 20


class TestHoStackMonitoring:
    def test_step_level_stack_streams_reports(self):
        result = run_ho_stack("fault-free", n=3, predicates=("p_su", "p_k"))
        reports = result.extra["predicate_reports"]
        assert set(reports) == {"p_su", "p_k"}
        assert reports["p_k"]["rounds_observed"] > 0
        # a pi-good run reaches kernel rounds quickly
        assert reports["p_k"]["good_rounds"] > 0

    def test_step_level_early_stop(self):
        full = run_ho_stack("fault-free", n=3, predicates=("p_su",))
        stopped = run_ho_stack("fault-free", n=3, predicates=("p_su",), stop_after_held=2)
        assert stopped.extra["stopped_early"]
        assert (
            stopped.extra["predicate_reports"]["p_su"]["rounds_observed"]
            <= full.extra["predicate_reports"]["p_su"]["rounds_observed"]
        )

    def test_stop_after_held_requires_predicates(self):
        with pytest.raises(ValueError, match="stop_after_held"):
            run_ho_stack("fault-free", n=3, stop_after_held=2)

    def test_zero_stop_after_held_is_rejected_not_ignored(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_ho_stack("fault-free", n=3, predicates=("p_su",), stop_after_held=0)

    def test_crash_stop_early_stop_fires_live(self):
        """Regression: the dead process never reports again, so rounds must
        complete on the surviving scope -- otherwise every round stays
        pending in the collator window and the stop policy only ever runs
        at finalize, after the full horizon already executed."""
        full = run_ho_stack("crash-stop", n=4, seed=0, predicates=("p_su",))
        stopped = run_ho_stack(
            "crash-stop", n=4, seed=0, predicates=("p_su",), stop_after_held=5
        )
        assert stopped.extra["stopped_early"]
        assert (
            stopped.extra["predicate_reports"]["p_su"]["rounds_observed"]
            < full.extra["predicate_reports"]["p_su"]["rounds_observed"]
        )

    def test_full_horizon_run_never_claims_early_stop(self):
        """Regression: finalize() drains pending rounds without evaluating
        the stop rule, so a run that went the distance must report
        stopped_early=False even though the drained tail would have
        satisfied it."""
        from repro.predicates import MonitorBank
        from repro.rounds.record import RoundRecord

        n = 2
        bank = MonitorBank(n, ["p_su"], pi0_mask=0b01, stop_after_held=2)
        # only process 0 ever reports: no round completes live, but every
        # drained round is space uniform for pi0={0}
        for round in (1, 2, 3):
            bank.on_record(RoundRecord(process=0, round=round, ho_mask=0b01))
        reports = bank.reports()  # drains rounds 1..3 through finalize()
        assert reports["p_su"].rounds_observed == 3
        assert reports["p_su"].longest_good_run == 3
        assert not bank.stop_requested

        result = run_ho_stack("crash-stop", n=4, seed=0, predicates=("p_su",))
        assert result.extra["stopped_early"] is False
        assert result.extra["predicate_reports"]["p_su"]["longest_good_run"] >= 5
