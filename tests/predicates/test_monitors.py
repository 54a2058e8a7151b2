"""Unit tests for the streaming monitor bank, its collator and its stop rule."""

from __future__ import annotations

import json

import pytest

from repro.predicates import (
    MONITOR_NAMES,
    MonitorBank,
    PredicateReport,
    RoundCollator,
    canonical_predicate_name,
    canonical_predicate_names,
)
from repro.rounds.record import RoundRecord


def full(n):
    return (1 << n) - 1


def feed(bank, rounds):
    """Observe *rounds* (mask vectors) as rounds 1, 2, ... and return the reports."""
    for round, masks in enumerate(rounds, start=bank.rounds_observed + 1):
        bank.observe_round(round, masks)
    return bank.reports()


class TestMonitorBasics:
    def test_rounds_must_arrive_consecutively(self):
        bank = MonitorBank(3, ["p_otr"])
        bank.observe_round(1, [0b111] * 3)
        with pytest.raises(ValueError, match="expects round 2"):
            bank.observe_round(3, [0b111] * 3)

    def test_potr_needs_a_uniform_quorum_round_then_big_rounds(self):
        n = 3
        bank = MonitorBank(n, ["p_otr"])
        assert not feed(bank, [[0b011, 0b110, 0b101]])["p_otr"].holds  # not uniform
        # uniform quorum round (the witness); the second clause needs *later* rounds
        assert not feed(bank, [[0b111] * n])["p_otr"].holds
        # |{0,1}| = 2 < threshold 3 for process 2
        assert not feed(bank, [[0b111, 0b111, 0b011]])["p_otr"].holds
        report = feed(bank, [[0b001, 0b111, 0b111]])["p_otr"]
        assert report.holds
        assert report.first_hold_round == 4
        assert report.first_good_round == 2

    def test_prestr_otr_candidate_scope_is_pi0_only(self):
        # Pi0 = {0,1,2} space-uniform at round 1; process 3 hears nothing.
        n = 4
        pi0 = 0b0111
        bank = MonitorBank(n, ["p_restr_otr"])
        assert not feed(bank, [[pi0, pi0, pi0, 0]])["p_restr_otr"].holds
        # Later kernel rounds for Pi0 members complete the witness.
        report = feed(bank, [[pi0, 0, 0, 0], [0, full(n), pi0, 0]])["p_restr_otr"]
        assert report.holds
        assert report.first_hold_round == 3

    def test_psu_empty_pi0_is_vacuously_true(self):
        bank = MonitorBank(3, ["p_su"], pi0_mask=0)
        assert feed(bank, [[0b001, 0b010, 0b100]])["p_su"].holds

    def test_pk_accepts_supersets_where_psu_requires_equality(self):
        n = 3
        bank = MonitorBank(n, ["p_su", "p_k"], pi0_mask=0b011)
        reports = feed(bank, [[full(n), full(n), 0]])  # HO = Pi > Pi0
        assert not reports["p_su"].holds
        assert reports["p_k"].holds

    def test_p2otr_needs_adjacent_su_then_kernel(self):
        n = 3
        bank = MonitorBank(n, ["p_2otr"])
        report = feed(
            bank,
            [
                [full(n)] * n,  # space uniform
                [0, 0, 0],      # violation in between
                [full(n)] * n,  # space uniform again
                [full(n)] * n,  # kernel round right after
            ],
        )["p_2otr"]
        assert report.holds
        assert report.first_hold_round == 4

    def test_p11otr_allows_a_gap_between_su_and_kernel(self):
        n = 3
        bank = MonitorBank(n, ["p_2otr", "p_1/1otr"])
        reports = feed(bank, [[full(n)] * n, [0, 0, 0], [full(n)] * n])
        assert not reports["p_2otr"].holds  # su at 1 and 3, never adjacent su->kernel
        assert reports["p_1/1otr"].holds    # kernel round 3 follows su round 1

    def test_report_round_trips_through_json(self):
        bank = MonitorBank(3, ["p_su"])
        report = feed(bank, [[full(3)] * 3, [0, 0, 0]])["p_su"]
        clone = PredicateReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
        assert clone == report
        assert clone.satisfaction == 0.5


class TestRunLengths:
    def test_good_and_bad_runs_are_tracked(self):
        n = 2
        pattern = [1, 1, 0, 1, 1, 1, 0, 0]  # 1 = space-uniform round
        bank = MonitorBank(n, ["p_su"])
        report = feed(bank, [[full(n)] * n if bit else [0, 0] for bit in pattern])["p_su"]
        assert report.good_rounds == 5
        assert report.first_good_round == 1
        assert report.longest_good_run == 3
        assert report.longest_bad_run == 2
        assert report.satisfaction == 5 / 8


class TestRoundCollator:
    def test_lockstep_rounds_complete_as_the_last_record_arrives(self):
        collator = RoundCollator(2)
        assert collator.add(0, 1, 0b01) == []
        assert collator.add(1, 1, 0b11) == [(1, [0b01, 0b11])]

    def test_out_of_order_processes_and_skipped_rounds(self):
        collator = RoundCollator(2, window=2)
        collator.add(0, 1, 0b11)
        # process 1 lags; nothing flushed yet (round 1 incomplete, in window)
        assert collator.add(0, 2, 0b01) == []
        # round 3 pushes round 1 out of the 2-round window; the lagging
        # process counts as having heard nobody there
        assert collator.add(0, 3, 0b01) == [(1, [0b11, 0])]
        assert collator.add(0, 4, 0b01) == [(2, [0b01, 0])]
        # a late record for an already-flushed round is counted, not applied
        collator.add(1, 1, 0b11)
        assert collator.late_records == 1
        assert [round for round, _ in collator.drain()] == [3, 4]

    def test_completion_mask_completes_rounds_without_dead_processes(self):
        # process 1 is crashed forever: with completion_mask = {0}, rounds
        # complete as soon as process 0 reports, with the dead process
        # counting as silent -- no window wait, live stop policies work.
        collator = RoundCollator(2, completion_mask=0b01)
        assert collator.add(0, 1, 0b01) == [(1, [0b01, 0])]
        # a report from outside the completing scope still contributes when
        # it arrives before the scope completes the round
        collator.add(1, 2, 0b11)
        assert collator.add(0, 2, 0b01) == [(2, [0b01, 0b11])]

    def test_gap_rounds_are_emitted_as_empty(self):
        collator = RoundCollator(1, window=1)
        collator.add(0, 1, 0b1)  # n=1: round 1 completes instantly
        out = collator.add(0, 4, 0b1)
        # rounds 2..3 never saw a record; round 4 completes with all of n=1
        assert out[0] == (2, [0]) and out[1] == (3, [0]) and out[2] == (4, [0b1])


class TestStopPolicies:
    def test_stop_after_held(self):
        n = 2
        bank = MonitorBank(n, ["p_su"], stop_after_held=3)
        for round in (1, 2):
            bank.observe_round(round, [full(n)] * n)
            assert not bank.stop_requested
        bank.observe_round(3, [full(n)] * n)
        assert bank.stop_requested

    def test_stop_after_held_validates_rounds(self):
        with pytest.raises(ValueError, match="at least 1"):
            MonitorBank(2, ["p_su"], stop_after_held=0)

    def test_drained_rounds_never_request_a_stop(self):
        n = 2
        bank = MonitorBank(n, ["p_su"], stop_after_held=1)
        bank.observe_round(1, [full(n)] * n, live=False)
        assert bank.reports()["p_su"].longest_good_run == 1
        assert not bank.stop_requested


class TestBank:
    def test_bank_feeds_from_records_and_finalizes_pending_rounds(self):
        n = 2
        bank = MonitorBank(n, ["p_k"], pi0_mask=0b01)
        bank.on_record(RoundRecord(process=0, round=1, ho_mask=0b11))
        bank.on_record(RoundRecord(process=1, round=1, ho_mask=0b10))
        bank.on_record(RoundRecord(process=0, round=2, ho_mask=0b01))
        assert bank.rounds_observed == 1
        # round 2 is incomplete; reports() drains it
        reports = bank.reports()
        assert reports["p_k"].rounds_observed == 2
        assert reports["p_k"].good_rounds == 2

    def test_reports_json_matches_reports(self):
        n = 2
        bank = MonitorBank(n, ["p_su"])
        bank.observe_round(1, [full(n)] * n)
        assert bank.reports_json()["p_su"] == bank.reports()["p_su"].to_json_dict()

    def test_completion_mask_makes_scoped_rounds_live(self):
        n = 2
        bank = MonitorBank(n, ["p_su"], pi0_mask=0b01, completion_mask=0b01)
        bank.on_record(RoundRecord(process=0, round=1, ho_mask=0b01))
        assert bank.rounds_observed == 1
        assert bank.late_records == 0
        bank.on_record(RoundRecord(process=1, round=1, ho_mask=0b11))
        assert bank.late_records == 1


class TestNames:
    def test_every_canonical_name_reports_under_its_own_name(self):
        bank = MonitorBank(4, MONITOR_NAMES)
        bank.observe_round(1, [full(4)] * 4)
        assert tuple(bank.reports()) == MONITOR_NAMES

    def test_aliases_and_case(self):
        assert canonical_predicate_name("P_OTR") == "p_otr"
        assert canonical_predicate_name("p-restr-otr") == "p_restr_otr"
        assert canonical_predicate_name("p_11otr") == "p_1/1otr"
        bank = MonitorBank(3, ["P_11OTR"])
        assert list(bank.reports()) == ["p_1/1otr"]

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="p_otr"):
            MonitorBank(4, ["p_bogus"])

    def test_no_name_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            MonitorBank(4, [])

    @pytest.mark.parametrize(
        "names", [["p_otr", "p_otr"], ["p_11otr", "p_1/1otr"], ["p_su", "P-SU"]]
    )
    def test_repeated_name_raises_after_aliases_resolve(self, names):
        with pytest.raises(ValueError, match="more than once"):
            canonical_predicate_names(names)
        with pytest.raises(ValueError, match="more than once"):
            MonitorBank(4, names)

    @pytest.mark.parametrize("scope", ["pi0_mask", "completion_mask"])
    def test_scope_ids_are_validated(self, scope):
        with pytest.raises(ValueError, match="outside"):
            MonitorBank(3, ["p_su"], **{scope: 0b10000001})
        with pytest.raises(ValueError, match="outside"):
            MonitorBank(3, ["p_su"], **{scope: -1})
