"""Theorems 3, 5, 6, 7 and Corollary 4: minimal good-period lengths.

Each sweep measures, in the step-level simulator, the good-period length
Algorithm 2 ("pi0-down", ``P_su``) or Algorithm 3 ("pi0-arbitrary",
``P_k``) actually needs, and checks it against the closed form
(``phi`` = 1 throughout, ``B = 2*delta + (n+2)*phi + 1``,
``C = tau_0*phi + delta + n*phi + 2*phi``):

* Theorem 3  -- ``(x+1)*B*phi + delta + phi`` after a bad period;
* Theorem 5  -- ``x*B*phi`` for an initial good period (tight), about 2/3
  of Theorem 3's at ``x = 2`` (the Section 4.2.1 remark);
* Corollary 4 -- one ``P_2otr`` period or two shorter ``P_1/1otr`` ones;
* Theorem 6  -- ``(x+2)*C + tau_0*phi`` after a bad period;
* Theorem 7  -- ``(x-1)*C + tau_0*phi + phi`` initially.

Measured <= bound at every point, and both grow with ``x`` and ``n``.
"""

from __future__ import annotations

import pytest

from repro.algorithms import OneThirdRule
from repro.predimpl import (
    build_down_stack,
    corollary4_p11otr_length,
    corollary4_p2otr_length,
    noninitial_to_initial_ratio,
    theorem6_good_period_length,
    theorem7_initial_good_period_length,
)
from repro.sysmodel import (
    BadPeriodNetwork,
    GoodPeriod,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemSimulator,
)
from repro.workloads import (
    measure_corollary4,
    measure_ratio_noninitial_vs_initial,
    measure_theorem3,
    measure_theorem5,
    measure_theorem6,
    measure_theorem7,
)

# (n, x, delta, seed)
THEOREM3_GRID = [
    (3, 2, 2.0, 0),
    (4, 1, 2.0, 0),
    (4, 2, 2.0, 0),
    (4, 2, 2.0, 1),
    (4, 3, 2.0, 0),
    (4, 2, 5.0, 0),
    (6, 2, 2.0, 0),
    (8, 2, 2.0, 0),
]
# (n, x, delta)
THEOREM5_GRID = [(3, 2, 2.0), (4, 1, 2.0), (4, 2, 2.0), (4, 3, 2.0), (4, 2, 5.0), (6, 2, 2.0),
                 (8, 2, 2.0)]
# (n, f, x, delta, seed)
THEOREM6_GRID = [
    (3, 1, 2, 2.0, 0),
    (4, 1, 1, 2.0, 0),
    (4, 1, 2, 2.0, 0),
    (4, 1, 2, 2.0, 1),
    (4, 1, 2, 5.0, 0),
    (5, 2, 2, 2.0, 0),
    (7, 3, 2, 2.0, 0),
]
# (n, f, x, delta)
THEOREM7_GRID = [
    (3, 1, 2, 2.0),
    (4, 1, 1, 2.0),
    (4, 1, 2, 2.0),
    (4, 1, 3, 2.0),
    (4, 1, 2, 5.0),
    (5, 2, 2, 2.0),
    (7, 3, 2, 2.0),
]


def within_bound(measurement):
    print(measurement.row())
    assert measurement.within_bound, measurement.row()
    return measurement


@pytest.mark.parametrize("n, x, delta, seed", THEOREM3_GRID)
def test_theorem3_sweep(n, x, delta, seed):
    within_bound(measure_theorem3(n, x, delta=delta, seed=seed))


def test_theorem3_length_grows_with_x_and_n():
    def measured(n, x):
        return measure_theorem3(n, x, delta=2.0, seed=0).measured

    assert measured(4, 1) <= measured(4, 2) <= measured(4, 3)
    assert measured(4, 2) <= measured(8, 2)


@pytest.mark.parametrize("n, x, delta", THEOREM5_GRID)
def test_theorem5_sweep(n, x, delta):
    measurement = within_bound(measure_theorem5(n, x, delta=delta))
    # With worst-case step gaps and delays the nice-run measurement is exactly
    # the analytic round length: the bound is tight.
    assert measurement.measured == pytest.approx(measurement.bound)


def test_theorem5_length_grows_with_n():
    small, large = measure_theorem5(3, 2), measure_theorem5(6, 2)
    assert small.measured < large.measured
    assert small.bound < large.bound


@pytest.mark.parametrize("n", [4, 6, 8])
def test_factor_three_halves(n):
    """Section 4.2.1: non-initial vs initial good period is about 3/2 at x = 2."""
    result = measure_ratio_noninitial_vs_initial(n, seed=0)
    print(
        f"n={n:<3} bound ratio={result['bound_ratio']:.3f} "
        f"measured ratio={result['measured_ratio']:.3f} "
        f"analytic ratio={noninitial_to_initial_ratio(2, n, 1.0, 2.0):.3f}"
    )
    assert 1.5 <= result["bound_ratio"] <= 1.7
    assert result["measured_ratio"] <= result["bound_ratio"] + 0.2


@pytest.mark.parametrize("n", [4, 6, 8])
def test_corollary4_measurements(n):
    """One longer P_2otr good period, or two shorter P_1/1otr ones."""
    p2otr, p11otr = measure_corollary4(n, seed=0)
    within_bound(p2otr)
    within_bound(p11otr)
    assert p11otr.bound < p2otr.bound
    assert corollary4_p11otr_length(n, 1.0, 2.0) < corollary4_p2otr_length(n, 1.0, 2.0)


def test_two_short_good_periods_suffice():
    """End to end: two periods, each too short for P_2otr, still yield one decision."""
    n, phi, delta = 4, 1.0, 2.0
    params = SynchronyParams(phi=phi, delta=delta)
    short = corollary4_p11otr_length(n, phi, delta)
    pi0 = frozenset(range(n))
    schedule = PeriodSchedule(
        n=n,
        good_periods=[
            GoodPeriod(60.0, 60.0 + short, GoodPeriodKind.PI0_DOWN, pi0),
            GoodPeriod(200.0, 200.0 + short, GoodPeriodKind.PI0_DOWN, pi0),
        ],
    )
    stack = build_down_stack(OneThirdRule(n), [10, 20, 30, 40], params)
    SystemSimulator(
        stack.programs,
        params,
        schedule,
        seed=3,
        trace=stack.trace,
        bad_network=BadPeriodNetwork(loss_probability=0.6, min_delay=1.0, max_delay=30.0),
    ).run(until=400.0)
    decided = stack.trace.decision_values()
    print(
        f"each good period = {short:.1f} (P_2otr would need "
        f"{corollary4_p2otr_length(n, phi, delta):.1f}); decisions: {decided}"
    )
    assert len(decided) == n
    assert len(set(decided.values())) == 1


@pytest.mark.parametrize("n, f, x, delta, seed", THEOREM6_GRID)
def test_theorem6_sweep(n, f, x, delta, seed):
    within_bound(measure_theorem6(n, f, x, delta=delta, seed=seed))


def test_theorem6_bound_grows_with_n():
    assert measure_theorem6(4, 1, 2).bound < measure_theorem6(7, 3, 2).bound


@pytest.mark.parametrize("n, f, x, delta", THEOREM7_GRID)
def test_theorem7_sweep(n, f, x, delta):
    within_bound(measure_theorem7(n, f, x, delta=delta))


@pytest.mark.parametrize("n, f, x, delta", THEOREM7_GRID)
def test_initial_cheaper_than_non_initial(n, f, x, delta):
    """At every swept point the Theorem 7 bound is below the Theorem 6 bound."""
    initial = theorem7_initial_good_period_length(x, n, 1.0, delta)
    non_initial = theorem6_good_period_length(x, n, 1.0, delta)
    print(f"n={n:<3} f={f:<2} x={x:<2} delta={delta:<5} initial={initial:8.1f} "
          f"non-initial={non_initial:8.1f} ratio={non_initial / initial:5.2f}")
    assert initial < non_initial
