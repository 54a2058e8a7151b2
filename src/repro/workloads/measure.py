"""The measurement harness: run scenarios and compare against the paper's bounds.

Each ``measure_*`` function sets up a step-level simulation matching one of
the paper's analytical scenarios (Theorems 3, 5, 6, 7, Corollary 4 and the
Section 4.2.2(c) composition), measures the time at which the target
predicate was achieved, and returns it together with the corresponding
closed-form bound.  ``tests/claims/`` sweeps them over the paper's
parameter grids and asserts measured <= bound at every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from ..algorithms import OneThirdRule
from ..predimpl import (
    arbitrary_p2otr_length,
    build_arbitrary_stack,
    build_down_stack,
    corollary4_p11otr_length,
    corollary4_p2otr_length,
    theorem3_good_period_length,
    theorem5_initial_good_period_length,
    theorem6_good_period_length,
    theorem7_initial_good_period_length,
)
from ..sysmodel import (
    BadPeriodNetwork,
    BadPeriodProcessBehavior,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemSimulator,
)


@dataclass(frozen=True)
class Measurement:
    """A measured good-period length (or latency) compared against its bound."""

    name: str
    n: int
    x: int
    phi: float
    delta: float
    seed: int
    measured: Optional[float]
    bound: float
    f: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def within_bound(self) -> bool:
        """Whether the measurement respects the analytic bound."""
        return self.measured is not None and self.measured <= self.bound + 1e-9

    @property
    def ratio(self) -> Optional[float]:
        """measured / bound (tightness of the worst-case analysis)."""
        if self.measured is None or self.bound == 0:
            return None
        return self.measured / self.bound

    def row(self) -> str:
        """A fixed-width text row for paper-vs-measured reports."""
        measured = "unreached" if self.measured is None else f"{self.measured:9.2f}"
        ratio = "  -  " if self.ratio is None else f"{self.ratio:5.2f}"
        return (
            f"{self.name:<22} n={self.n:<3} f={self.f:<2} x={self.x:<2} "
            f"phi={self.phi:<4} delta={self.delta:<5} "
            f"measured={measured}  bound={self.bound:9.2f}  ratio={ratio}  "
            f"{'OK' if self.within_bound else 'VIOLATION'}"
        )


#: bad-period behaviour used by the non-initial scenarios: lossy asynchronous
#: links and irregular process speeds, to create round skew before the good
#: period starts.
DEFAULT_BAD_NETWORK = BadPeriodNetwork(loss_probability=0.6, min_delay=1.0, max_delay=40.0)
DEFAULT_BAD_BEHAVIOR = BadPeriodProcessBehavior(
    min_step_gap=1.0, max_step_gap=6.0, stall_probability=0.25
)


def _initial_values(n: int) -> list[int]:
    return [10 * (p + 1) for p in range(n)]


def _run_down(
    n: int,
    phi: float,
    delta: float,
    schedule: PeriodSchedule,
    until: float,
    seed: int,
):
    params = SynchronyParams(phi=phi, delta=delta)
    stack = build_down_stack(OneThirdRule(n), _initial_values(n), params)
    simulator = SystemSimulator(
        stack.programs,
        params,
        schedule,
        seed=seed,
        trace=stack.trace,
        bad_network=DEFAULT_BAD_NETWORK,
        bad_process_behavior=DEFAULT_BAD_BEHAVIOR,
    )
    simulator.run(until=until)
    return stack.trace


def _run_arbitrary(
    n: int,
    f: int,
    phi: float,
    delta: float,
    schedule: PeriodSchedule,
    until: float,
    seed: int,
    use_translation: bool = False,
):
    params = SynchronyParams(phi=phi, delta=delta)
    stack = build_arbitrary_stack(
        OneThirdRule(n), f, _initial_values(n), params, use_translation=use_translation
    )
    simulator = SystemSimulator(
        stack.programs,
        params,
        schedule,
        seed=seed,
        trace=stack.trace,
        bad_network=DEFAULT_BAD_NETWORK,
        bad_process_behavior=DEFAULT_BAD_BEHAVIOR,
    )
    simulator.run(until=until)
    return stack.trace


# --------------------------------------------------------------------------- #
# Algorithm 2 ("pi0-down") measurements: Theorems 3 and 5, Corollary 4
# --------------------------------------------------------------------------- #


def measure_theorem3(
    n: int,
    x: int,
    phi: float = 1.0,
    delta: float = 2.0,
    seed: int = 0,
    good_start: float = 120.0,
) -> Measurement:
    """Measure the good-period length needed for ``P_su(Pi, ., .+x-1)`` after a bad period."""
    bound = theorem3_good_period_length(x, n, phi, delta)
    pi0 = frozenset(range(n))
    schedule = PeriodSchedule.single_good_period(
        n, start=good_start, length=3 * bound + 50.0, kind=GoodPeriodKind.PI0_DOWN, pi0=pi0
    )
    trace = _run_down(n, phi, delta, schedule, until=good_start + 3 * bound + 50.0, seed=seed)
    window = trace.earliest_psu_window(pi0, x, not_before=good_start)
    measured = None if window is None else window[1] - good_start
    return Measurement("theorem3", n, x, phi, delta, seed, measured, bound)


def measure_theorem5(
    n: int, x: int, phi: float = 1.0, delta: float = 2.0, seed: int = 0
) -> Measurement:
    """Measure the initial good-period length needed for ``P_su(Pi, 1, x)`` (a nice run)."""
    bound = theorem5_initial_good_period_length(x, n, phi, delta)
    pi0 = frozenset(range(n))
    schedule = PeriodSchedule.always_good(n, GoodPeriodKind.PI0_DOWN, pi0=pi0)
    trace = _run_down(n, phi, delta, schedule, until=2 * bound + 50.0, seed=seed)
    window = trace.earliest_psu_window(pi0, x)
    measured = None if window is None else window[1]
    return Measurement("theorem5", n, x, phi, delta, seed, measured, bound)


def measure_corollary4(
    n: int,
    phi: float = 1.0,
    delta: float = 2.0,
    seed: int = 0,
    good_start: float = 120.0,
) -> Sequence[Measurement]:
    """Measure the P_2otr and P_1/1otr achievement lengths of Corollary 4."""
    pi0 = frozenset(range(n))
    p2_bound = corollary4_p2otr_length(n, phi, delta)
    schedule = PeriodSchedule.single_good_period(
        n, start=good_start, length=3 * p2_bound, kind=GoodPeriodKind.PI0_DOWN, pi0=pi0
    )
    trace = _run_down(n, phi, delta, schedule, until=good_start + 3 * p2_bound, seed=seed)
    p2otr = trace.earliest_p2otr(pi0, not_before=good_start)
    p2_measurement = Measurement(
        "corollary4_p2otr",
        n,
        2,
        phi,
        delta,
        seed,
        None if p2otr is None else p2otr[1] - good_start,
        p2_bound,
    )
    # P_1/1otr: one space-uniform round suffices per (shorter) good period.
    p11_bound = corollary4_p11otr_length(n, phi, delta)
    window = trace.earliest_psu_window(pi0, 1, not_before=good_start)
    p11_measurement = Measurement(
        "corollary4_p11otr",
        n,
        1,
        phi,
        delta,
        seed,
        None if window is None else window[1] - good_start,
        p11_bound,
    )
    return [p2_measurement, p11_measurement]


def measure_ratio_noninitial_vs_initial(
    n: int, x: int = 2, phi: float = 1.0, delta: float = 2.0, seed: int = 0
) -> Dict[str, float]:
    """The paper's 'factor of approximately 3/2' between Theorems 3 and 5, measured."""
    theorem3 = measure_theorem3(n, x, phi, delta, seed)
    theorem5 = measure_theorem5(n, x, phi, delta, seed)
    result = {
        "bound_ratio": theorem3.bound / theorem5.bound,
        "measured_theorem3": theorem3.measured,
        "measured_theorem5": theorem5.measured,
    }
    if theorem3.measured is not None and theorem5.measured:
        result["measured_ratio"] = theorem3.measured / theorem5.measured
    return result


# --------------------------------------------------------------------------- #
# Algorithm 3 ("pi0-arbitrary") measurements: Theorems 6 and 7, Section 4.2.2(c)
# --------------------------------------------------------------------------- #


def measure_theorem6(
    n: int,
    f: int,
    x: int,
    phi: float = 1.0,
    delta: float = 2.0,
    seed: int = 0,
    good_start: float = 120.0,
) -> Measurement:
    """Measure the pi0-arbitrary good-period length for ``P_k(pi0, ., .+x-1)`` after a bad period."""
    bound = theorem6_good_period_length(x, n, phi, delta)
    pi0 = frozenset(range(n - f))
    schedule = PeriodSchedule.single_good_period(
        n, start=good_start, length=3 * bound + 50.0, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=pi0
    )
    trace = _run_arbitrary(
        n, f, phi, delta, schedule, until=good_start + 3 * bound + 50.0, seed=seed
    )
    window = trace.earliest_pk_window(
        pi0, x, not_before=good_start, last_round_by_reception=True
    )
    measured = None if window is None else window[1] - good_start
    return Measurement("theorem6", n, x, phi, delta, seed, measured, bound, f=f)


def measure_theorem7(
    n: int, f: int, x: int, phi: float = 1.0, delta: float = 2.0, seed: int = 0
) -> Measurement:
    """Measure the initial pi0-arbitrary good-period length for ``P_k(pi0, 1, x)``."""
    bound = theorem7_initial_good_period_length(x, n, phi, delta)
    pi0 = frozenset(range(n - f))
    schedule = PeriodSchedule.always_good(n, GoodPeriodKind.PI0_ARBITRARY, pi0=pi0)
    trace = _run_arbitrary(n, f, phi, delta, schedule, until=3 * bound + 100.0, seed=seed)
    window = trace.earliest_pk_window(pi0, x, last_round_by_reception=True)
    measured = None if window is None else window[1]
    return Measurement("theorem7", n, x, phi, delta, seed, measured, bound, f=f)


def measure_arbitrary_p2otr(
    n: int,
    f: int,
    phi: float = 1.0,
    delta: float = 2.0,
    seed: int = 0,
    good_start: float = 100.0,
) -> Measurement:
    """Measure consensus latency of the full stack (Algorithm 1 over 4 over 3).

    Section 4.2.2(c): one pi0-arbitrary good period of the 2f+3-round bound
    suffices for ``P_2otr`` through the translation, hence for consensus.
    The measured quantity is the time from the start of the good period to
    the last decision of a pi0 process.
    """
    bound = arbitrary_p2otr_length(f, n, phi, delta)
    pi0 = frozenset(range(n - f))
    schedule = PeriodSchedule.single_good_period(
        n, start=good_start, length=3 * bound, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=pi0
    )
    trace = _run_arbitrary(
        n,
        f,
        phi,
        delta,
        schedule,
        until=good_start + 3 * bound,
        seed=seed,
        use_translation=True,
    )
    decision_time = trace.last_decision_time(pi0)
    measured = None if decision_time is None else max(decision_time - good_start, 0.0)
    return Measurement(
        "arbitrary_p2otr",
        n,
        2 * f + 3,
        phi,
        delta,
        seed,
        measured,
        bound,
        f=f,
        extra={"decisions": dict(trace.decision_values())},
    )


__all__ = [
    "Measurement",
    "DEFAULT_BAD_NETWORK",
    "DEFAULT_BAD_BEHAVIOR",
    "measure_theorem3",
    "measure_theorem5",
    "measure_corollary4",
    "measure_ratio_noninitial_vs_initial",
    "measure_theorem6",
    "measure_theorem7",
    "measure_arbitrary_p2otr",
]
