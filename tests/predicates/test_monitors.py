"""Unit tests for the streaming predicate monitors, collator, bank and stop rule."""

from __future__ import annotations

import json

import pytest

from repro.core.types import HOCollection
from repro.predicates import (
    MONITOR_NAMES,
    MonitorBank,
    P2OtrMonitor,
    P11OtrMonitor,
    PKernelMonitor,
    POtrMonitor,
    PredicateReport,
    PRestrOtrMonitor,
    PSuMonitor,
    RoundCollator,
    build_monitor,
    canonical_predicate_name,
    monitor_collection,
)
from repro.rounds.record import RoundRecord


def full(n):
    return (1 << n) - 1


class TestMonitorBasics:
    def test_rounds_must_arrive_consecutively(self):
        monitor = POtrMonitor(3)
        monitor.observe(1, [0b111] * 3)
        with pytest.raises(ValueError, match="expects round 2"):
            monitor.observe(3, [0b111] * 3)

    def test_potr_needs_a_uniform_quorum_round_then_big_rounds(self):
        n = 3
        monitor = POtrMonitor(n)
        monitor.observe(1, [0b011, 0b110, 0b101])  # not uniform
        assert not monitor.verdict
        monitor.observe(2, [0b111] * n)  # uniform quorum round (the witness)
        assert not monitor.verdict  # second clause needs *later* rounds
        monitor.observe(3, [0b111, 0b111, 0b011])
        assert not monitor.verdict  # |{0,1}| = 2 < threshold 3 for process 2
        monitor.observe(4, [0b001, 0b111, 0b111])
        assert monitor.verdict
        report = monitor.report()
        assert report.first_hold_round == 4
        assert report.first_good_round == 2

    def test_prestr_otr_candidate_scope_is_pi0_only(self):
        # Pi0 = {0,1,2} space-uniform at round 1; process 3 hears nothing.
        n = 4
        pi0 = 0b0111
        monitor = PRestrOtrMonitor(n)
        monitor.observe(1, [pi0, pi0, pi0, 0])
        assert not monitor.verdict
        # Later kernel rounds for Pi0 members complete the witness.
        monitor.observe(2, [pi0, 0, 0, 0])
        monitor.observe(3, [0, full(n), pi0, 0])
        assert monitor.verdict
        assert monitor.report().first_hold_round == 3

    def test_psu_windowed_counts_unobserved_rounds_as_empty(self):
        n = 3
        monitor = PSuMonitor(n, pi0={0, 1, 2}, first_round=1, last_round=5)
        for round in (1, 2, 3):
            monitor.observe(round, [full(n)] * n)
        assert not monitor.verdict  # rounds 4..5 missing = empty HO sets

    def test_psu_empty_pi0_is_vacuously_true(self):
        monitor = PSuMonitor(3, pi0=(), first_round=1, last_round=9)
        monitor.observe(1, [0b001, 0b010, 0b100])
        assert monitor.verdict

    def test_pk_accepts_supersets_where_psu_requires_equality(self):
        n = 3
        pi0 = {0, 1}
        su = PSuMonitor(n, pi0)
        pk = PKernelMonitor(n, pi0)
        masks = [full(n), full(n), 0]  # HO = Pi > Pi0
        su.observe(1, masks)
        pk.observe(1, masks)
        assert not su.verdict
        assert pk.verdict

    def test_p2otr_needs_adjacent_su_then_kernel(self):
        n = 3
        pi0 = {0, 1, 2}
        monitor = P2OtrMonitor(n, pi0)
        monitor.observe(1, [full(n)] * n)  # space uniform
        monitor.observe(2, [0, 0, 0])      # violation in between
        monitor.observe(3, [full(n)] * n)  # space uniform again
        monitor.observe(4, [full(n)] * n)  # kernel round right after
        assert monitor.verdict
        assert monitor.report().first_hold_round == 4

    def test_p11otr_allows_a_gap_between_su_and_kernel(self):
        n = 3
        pi0 = {0, 1, 2}
        p2 = P2OtrMonitor(n, pi0)
        p11 = P11OtrMonitor(n, pi0)
        rounds = [[full(n)] * n, [0, 0, 0], [full(n)] * n]
        for round, masks in enumerate(rounds, start=1):
            p2.observe(round, masks)
            p11.observe(round, masks)
        assert not p2.verdict  # su at 1 and 3, never adjacent su->kernel
        assert p11.verdict    # kernel round 3 follows su round 1

    def test_report_round_trips_through_json(self):
        monitor = PSuMonitor(3, {0, 1, 2})
        monitor.observe(1, [full(3)] * 3)
        monitor.observe(2, [0, 0, 0])
        report = monitor.report()
        clone = PredicateReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
        assert clone == report
        assert clone.satisfaction == 0.5


class TestRunLengths:
    def test_good_and_bad_runs_are_tracked(self):
        n = 2
        monitor = PSuMonitor(n, {0, 1})
        pattern = [1, 1, 0, 1, 1, 1, 0, 0]  # 1 = space-uniform round
        for round, bit in enumerate(pattern, start=1):
            masks = [full(n)] * n if bit else [0, 0]
            monitor.observe(round, masks)
        report = monitor.report()
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
        bank = MonitorBank(n, [PSuMonitor(n, {0, 1})], stop_after_held=3)
        for round in (1, 2):
            bank.observe_round(round, [full(n)] * n)
            assert not bank.stop_requested
        bank.observe_round(3, [full(n)] * n)
        assert bank.stop_requested

    def test_stop_after_held_validates_rounds(self):
        with pytest.raises(ValueError, match="at least 1"):
            MonitorBank(2, [PSuMonitor(2)], stop_after_held=0)


class TestBank:
    def test_bank_feeds_from_records_and_finalizes_pending_rounds(self):
        n = 2
        bank = MonitorBank(n, [PKernelMonitor(n, {0})])
        bank.on_record(RoundRecord(process=0, round=1, ho_mask=0b11))
        bank.on_record(RoundRecord(process=1, round=1, ho_mask=0b10))
        bank.on_record(RoundRecord(process=0, round=2, ho_mask=0b01))
        # round 2 is incomplete; reports() drains it
        reports = bank.reports()
        assert reports["p_k"].rounds_observed == 2
        assert reports["p_k"].good_rounds == 2

    def test_reports_json_matches_reports(self):
        n = 2
        bank = MonitorBank(n, [PSuMonitor(n)])
        bank.observe_round(1, [full(n)] * n)
        assert bank.reports_json()["p_su"] == bank.reports()["p_su"].to_json_dict()


class TestFactory:
    def test_every_canonical_name_builds(self):
        for name in MONITOR_NAMES:
            monitor = build_monitor(name, 4)
            assert monitor.name == name

    def test_aliases_and_case(self):
        assert canonical_predicate_name("P_OTR") == "p_otr"
        assert canonical_predicate_name("p-restr-otr") == "p_restr_otr"
        assert canonical_predicate_name("p_11otr") == "p_1/1otr"

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="p_otr"):
            build_monitor("p_bogus", 4)

    def test_pi0_ids_are_validated(self):
        with pytest.raises(ValueError, match="outside"):
            build_monitor("p_su", 3, pi0={0, 7})


class TestMonitorCollection:
    def test_replaying_a_collection_observes_every_round(self):
        collection = HOCollection(3)
        for round in (1, 2, 3):
            for p in range(3):
                collection.record_mask(p, round, 0b111)
        reports = monitor_collection(collection, [build_monitor("p_su", 3)])
        assert reports["p_su"].rounds_observed == 3
        assert reports["p_su"].holds
