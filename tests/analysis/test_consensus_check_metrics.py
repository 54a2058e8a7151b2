"""Unit tests for the consensus checker and the run metrics."""

from __future__ import annotations

import pytest

from repro.algorithms import OneThirdRule
from repro.analysis import (
    algorithm_complexity_summary,
    check_consensus,
    metrics_from_des,
    metrics_from_trace,
)
from repro.adversaries import FaultFreeOracle, ScriptedOracle
from repro.core.machine import HOMachine
from repro.des import DESProcess, EventSimulator
from repro.sysmodel.trace import SystemRunTrace


class TestCheckConsensusOnHOTraces:
    def test_solved_run(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [4, 4, 2])
        trace = machine.run_until_decision(max_rounds=10)
        verdict = check_consensus(trace, [4, 4, 2])
        assert verdict.solved
        assert verdict.safe
        assert not verdict.violations

    def test_termination_failure_is_reported(self):
        oracle = ScriptedOracle(3, {}, default=[])
        machine = HOMachine(OneThirdRule(3), oracle, [1, 2, 3])
        machine.run(5)
        verdict = check_consensus(machine.trace, [1, 2, 3])
        assert verdict.safe
        assert not verdict.termination
        assert any("never decided" in violation for violation in verdict.violations)

    def test_scope_restricts_termination(self):
        oracle = ScriptedOracle(3, {}, default=[])
        machine = HOMachine(OneThirdRule(3), oracle, [1, 2, 3])
        machine.run(5)
        verdict = check_consensus(machine.trace, [1, 2, 3], scope=[])
        assert verdict.termination

    def test_integrity_violation_detected(self):
        trace = SystemRunTrace(n=2)
        trace.record_decision(0, 99, round=1, time=1.0)
        verdict = check_consensus(trace, [1, 2])
        assert not verdict.integrity
        assert not verdict.solved

    def test_agreement_violation_detected(self):
        trace = SystemRunTrace(n=2)
        trace.record_decision(0, 1, round=1, time=1.0)
        trace.record_decision(1, 2, round=1, time=1.0)
        verdict = check_consensus(trace, [1, 2])
        assert not verdict.agreement
        assert verdict.integrity

    def test_mapping_initial_values(self):
        trace = SystemRunTrace(n=2)
        trace.record_decision(0, "b", round=1, time=1.0)
        verdict = check_consensus(trace, {0: "a", 1: "b"}, scope=[0])
        assert verdict.integrity
        assert verdict.termination


class TestMetrics:
    def test_metrics_from_ho_trace(self):
        machine = HOMachine(OneThirdRule(3), FaultFreeOracle(3), [7, 7, 7])
        trace = machine.run_until_decision(max_rounds=10)
        metrics = metrics_from_trace(trace)
        assert metrics.all_decided
        assert metrics.unanimous
        assert metrics.first_decision_round == 1
        assert metrics.messages_sent == 9

    def test_metrics_from_system_trace(self):
        trace = SystemRunTrace(n=2)
        trace.record_decision(0, 5, round=3, time=12.0)
        trace.record_decision(1, 5, round=4, time=15.0)
        trace.messages_sent = 42
        metrics = metrics_from_trace(trace)
        assert metrics.all_decided
        assert metrics.unanimous
        assert metrics.first_decision_time == 12.0
        assert metrics.last_decision_time == 15.0
        assert metrics.last_decision_round == 4
        assert metrics.messages_sent == 42

    def test_metrics_with_scope(self):
        trace = SystemRunTrace(n=3)
        trace.record_decision(0, 5, round=1, time=1.0)
        metrics = metrics_from_trace(trace, scope=[0, 1])
        assert metrics.decided_processes == 1
        assert metrics.scope_size == 2
        assert not metrics.all_decided

    def test_metrics_from_des(self):
        class Decider(DESProcess):
            def on_start(self, ctx):
                ctx.decide("v")

        simulator = EventSimulator([Decider(0, 2), Decider(1, 2)], seed=0)
        simulator.run(until=5.0)
        metrics = metrics_from_des(simulator)
        assert metrics.all_decided
        assert metrics.unanimous


class TestComplexitySummary:
    def test_contains_the_three_algorithms(self):
        summary = algorithm_complexity_summary()
        assert set(summary) == {"one-third-rule", "chandra-toueg", "aguilera"}

    def test_structural_gap_between_crash_stop_and_crash_recovery(self):
        """The Section 2.1 observation, as numbers."""
        summary = algorithm_complexity_summary()
        aguilera = summary["aguilera"]
        chandra_toueg = summary["chandra-toueg"]
        one_third_rule = summary["one-third-rule"]
        # The crash-recovery FD algorithm needs strictly more machinery.
        assert aguilera.state_variables > chandra_toueg.state_variables
        assert aguilera.needs_stable_storage and not chandra_toueg.needs_stable_storage
        assert aguilera.needs_retransmission_task
        assert aguilera.distinct_from_crash_stop_variant
        # The HO algorithm is the same in both fault models and needs no detector.
        assert not one_third_rule.distinct_from_crash_stop_variant
        assert not one_third_rule.needs_failure_detector
        assert one_third_rule.message_kinds < chandra_toueg.message_kinds
