"""Exact outcomes of the step-level theorem runners and the three comparison stacks.

``tests/claims/`` only asserts measured <= bound; these tables pin the exact
numbers, so a refactor of how the stacks are assembled (Algorithms 2 and 3,
their builder, the measurement runners, the failure-detector baselines) must
reproduce them bit for bit.  The literals were captured from the simulator as
it stood before those stacks shared one builder; the baselines' rows were
re-captured when they moved onto the step-level simulator under the HO
stack's environment.  Regenerate them only for an intended semantic change.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import RunMetrics
from repro.workloads.measure import (
    measure_arbitrary_p2otr,
    measure_corollary4,
    measure_theorem3,
    measure_theorem5,
    measure_theorem6,
    measure_theorem7,
)
from repro.workloads.scenarios import run_aguilera, run_chandra_toueg, run_ho_stack

N = 4
X = 2
F = 1

#: seed -> measured good-period length (or latency), n = 4, x = 2, f = 1.
THEOREM3 = {0: 25.0, 1: 29.0, 2: 30.0}
THEOREM5 = {0: 22.0, 1: 22.0, 2: 22.0}
THEOREM6 = {0: 28.0, 1: 36.0, 2: 21.0}
THEOREM7 = {0: 23.0, 1: 24.0, 2: 23.0}
COROLLARY4 = {0: (25.0, 14.0), 1: (29.0, 18.0), 2: (30.0, 19.0)}
ARBITRARY_P2OTR = {0: 98.0, 1: 90.0, 2: 92.0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theorem_runners_measure_the_pinned_lengths(seed):
    assert measure_theorem3(N, X, seed=seed).measured == THEOREM3[seed]
    assert measure_theorem5(N, X, seed=seed).measured == THEOREM5[seed]
    assert measure_theorem6(N, F, X, seed=seed).measured == THEOREM6[seed]
    assert measure_theorem7(N, F, X, seed=seed).measured == THEOREM7[seed]
    assert tuple(m.measured for m in measure_corollary4(N, seed=seed)) == COROLLARY4[seed]
    composed = measure_arbitrary_p2otr(N, F, seed=seed)
    assert composed.measured == ARBITRARY_P2OTR[seed]
    assert composed.extra == {"decisions": {0: 10, 1: 10, 2: 10}}


RUNNERS = {"ho-stack": run_ho_stack, "chandra-toueg": run_chandra_toueg, "aguilera": run_aguilera}

NEVER_DECIDED = (False, ("processes [0, 1, 2, 3] never decided",))
SURVIVORS_NEVER_DECIDED = (False, ("processes [0, 1, 2] never decided",))

#: (stack, fault model, seed) -> (decided value, termination and violations
#: or None when solved, RunMetrics fields), n = 4.
OUTCOMES = {
    ("ho-stack", "fault-free", 0): (10, None, (4, 4, True, 22.0, 22.0, 2, 2, 704)),
    ("ho-stack", "fault-free", 1): (10, None, (4, 4, True, 22.0, 22.0, 2, 2, 704)),
    ("ho-stack", "crash-stop", 0): (10, None, (3, 3, True, 111.0, 114.0, 5, 5, 472)),
    ("ho-stack", "crash-stop", 1): (10, None, (3, 3, True, 111.0, 114.0, 5, 5, 472)),
    ("ho-stack", "crash-recovery", 0): (10, None, (4, 4, True, 95.0, 98.0, 3, 3, 624)),
    ("ho-stack", "crash-recovery", 1): (10, None, (4, 4, True, 107.0, 109.0, 4, 4, 624)),
    ("ho-stack", "lossy", 0): (10, None, (4, 4, True, 110.0, 113.0, 5, 5, 624)),
    ("ho-stack", "lossy", 1): (10, None, (4, 4, True, 102.0, 105.0, 4, 4, 616)),
    ("chandra-toueg", "fault-free", 0): (10, None, (4, 4, True, 16.0, 22.0, 1, 2, 27)),
    ("chandra-toueg", "fault-free", 1): (10, None, (4, 4, True, 16.0, 22.0, 1, 2, 27)),
    ("chandra-toueg", "crash-stop", 0): (
        None, SURVIVORS_NEVER_DECIDED, (0, 3, True, None, None, None, None, 10)
    ),
    ("chandra-toueg", "crash-stop", 1): (
        None, SURVIVORS_NEVER_DECIDED, (0, 3, True, None, None, None, None, 12)
    ),
    ("chandra-toueg", "crash-recovery", 0): (
        None, NEVER_DECIDED, (0, 4, True, None, None, None, None, 12)
    ),
    ("chandra-toueg", "crash-recovery", 1): (
        None, NEVER_DECIDED, (0, 4, True, None, None, None, None, 12)
    ),
    ("chandra-toueg", "lossy", 0): (None, NEVER_DECIDED, (0, 4, True, None, None, None, None, 12)),
    ("chandra-toueg", "lossy", 1): (None, NEVER_DECIDED, (0, 4, True, None, None, None, None, 14)),
    ("aguilera", "fault-free", 0): (10, None, (4, 4, True, 15.0, 20.0, 1, 1, 19)),
    ("aguilera", "fault-free", 1): (10, None, (4, 4, True, 15.0, 20.0, 1, 1, 19)),
    ("aguilera", "crash-stop", 0): (10, None, (3, 3, True, 105.0, 110.0, 3, 3, 69)),
    ("aguilera", "crash-stop", 1): (10, None, (3, 3, True, 106.0, 112.0, 3, 3, 69)),
    ("aguilera", "crash-recovery", 0): (10, None, (4, 4, True, 100.0, 107.0, 5, 5, 78)),
    ("aguilera", "crash-recovery", 1): (10, None, (4, 4, True, 110.0, 115.0, 6, 6, 93)),
    ("aguilera", "lossy", 0): (10, None, (4, 4, True, 111.0, 118.0, 6, 6, 96)),
    ("aguilera", "lossy", 1): (10, None, (4, 4, True, 107.0, 115.0, 4, 4, 89)),
}


@pytest.mark.parametrize("stack, fault_model, seed", sorted(OUTCOMES))
def test_comparison_stacks_reach_the_pinned_outcome(stack, fault_model, seed):
    value, failure, metrics = OUTCOMES[(stack, fault_model, seed)]
    result = RUNNERS[stack](fault_model, n=N, seed=seed)
    verdict = result.verdict
    termination, violations = failure if failure is not None else (True, ())
    assert (verdict.integrity, verdict.agreement) == (True, True)
    assert (verdict.termination, tuple(verdict.violations)) == (termination, violations)
    scope_size = metrics[1]
    expected_decisions = {} if value is None else {p: value for p in range(scope_size)}
    assert dict(verdict.decisions) == expected_decisions
    assert result.metrics == RunMetrics(*metrics)
