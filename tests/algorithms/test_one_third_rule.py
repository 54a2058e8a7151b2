"""Unit tests for the OneThirdRule consensus algorithm (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.algorithms import OneThirdRule
from repro.algorithms.one_third_rule import OneThirdRuleMessage, OneThirdRuleState
from repro.adversaries import FaultFreeOracle, ScriptedOracle, SilentRoundsOracle
from repro.core.machine import HOMachine


class TestTransitionFunction:
    """Direct tests of T_p^r against the pseudo-code of Algorithm 1."""

    def setup_method(self):
        self.algorithm = OneThirdRule(6)

    def _received(self, values):
        return {sender: OneThirdRuleMessage(x=value) for sender, value in enumerate(values)}

    def test_no_change_when_too_few_messages(self):
        # 4 <= 2n/3 = 4 messages: the guard |HO| > 2n/3 fails.
        state = OneThirdRuleState(x=99)
        new_state = self.algorithm.transition(1, 0, state, self._received([1, 1, 1, 1]))
        assert new_state is state

    def test_adopts_overwhelming_value(self):
        # 5 values, 4 of them equal; the odd one out is within floor(n/3)=2.
        state = OneThirdRuleState(x=99)
        new_state = self.algorithm.transition(1, 0, state, self._received([7, 7, 7, 7, 3]))
        assert new_state.x == 7

    def test_falls_back_to_smallest_value(self):
        # 6 values, the most frequent one misses 3 > floor(n/3) = 2 others.
        state = OneThirdRuleState(x=99)
        new_state = self.algorithm.transition(
            1, 0, state, self._received([5, 5, 5, 2, 3, 4])
        )
        assert new_state.x == 2

    def test_decides_on_more_than_two_thirds(self):
        state = OneThirdRuleState(x=99)
        new_state = self.algorithm.transition(
            1, 0, state, self._received([8, 8, 8, 8, 8, 1])
        )
        assert new_state.decision == 8
        assert new_state.x == 8

    def test_exactly_two_thirds_does_not_decide(self):
        # 4 equal values out of 6 received: 4 is not > 2n/3 = 4.
        state = OneThirdRuleState(x=99)
        new_state = self.algorithm.transition(
            1, 0, state, self._received([8, 8, 8, 8, 1, 2])
        )
        assert new_state.decision is None

    def test_decision_is_stable(self):
        state = OneThirdRuleState(x=8, decision=8)
        new_state = self.algorithm.transition(
            2, 0, state, self._received([1, 1, 1, 1, 1, 1])
        )
        # The estimate may change but the decision never does.
        assert new_state.decision == 8

    def test_empty_reception_keeps_state(self):
        state = OneThirdRuleState(x=3)
        assert self.algorithm.transition(1, 0, state, {}) is state


class TestSendFunction:
    def test_sends_current_estimate(self):
        algorithm = OneThirdRule(3)
        state = algorithm.initial_state(0, 17)
        assert algorithm.send(1, 0, state) == OneThirdRuleMessage(x=17)


class TestEndToEnd:
    def test_fault_free_run_decides_unanimously(self):
        n = 7
        machine = HOMachine(OneThirdRule(n), FaultFreeOracle(n), list(range(n)))
        trace = machine.run_until_decision(max_rounds=10)
        decisions = trace.decisions()
        assert len(decisions) == n
        assert set(decisions.values()) == {0}  # the smallest initial value wins here

    def test_integrity_fault_free(self):
        n = 5
        values = [11, 22, 33, 44, 55]
        machine = HOMachine(OneThirdRule(n), FaultFreeOracle(n), values)
        trace = machine.run_until_decision(max_rounds=10)
        for decision in trace.decisions().values():
            assert decision in values

    def test_silent_rounds_delay_but_do_not_break(self):
        """P_otr explicitly allows rounds in which no messages are received."""
        n = 4
        oracle = SilentRoundsOracle(n, silent_rounds=[1, 2, 3])
        machine = HOMachine(OneThirdRule(n), oracle, [9, 9, 1, 1])
        trace = machine.run_until_decision(max_rounds=10)
        decisions = trace.decisions()
        assert len(decisions) == n
        assert len(set(decisions.values())) == 1

    def test_no_termination_without_quorum_rounds(self):
        """With every HO set at half the system, the decision guard can never fire."""
        n = 6
        half = {p: [0, 1, 2] for p in range(n)}
        oracle = ScriptedOracle(n, {}, default=[0, 1, 2])
        machine = HOMachine(OneThirdRule(n), oracle, [1, 2, 3, 4, 5, 6])
        machine.run(20)
        assert machine.decisions() == {}

    def test_agreement_under_asymmetric_ho_sets(self):
        """A hand-crafted adversarial collection: safety must hold regardless."""
        n = 4
        script = {
            (1, 0): [0, 1, 2],
            (1, 1): [1, 2, 3],
            (1, 2): [0, 2, 3],
            (1, 3): [0, 1, 3],
            (2, 0): [0, 1, 2, 3],
            (2, 1): [0, 1],
            (2, 2): [2, 3],
            (2, 3): [0, 1, 2, 3],
        }
        oracle = ScriptedOracle(n, script)
        machine = HOMachine(OneThirdRule(n), oracle, [3, 1, 4, 1])
        machine.run(10)
        decided_values = set(machine.decisions().values())
        assert len(decided_values) <= 1
        if decided_values:
            assert decided_values <= {3, 1, 4}
