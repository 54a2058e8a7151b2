"""Unit tests for the synchrony parameters and good/bad period schedules."""

from __future__ import annotations

import math
import random

import pytest

from repro.sysmodel.params import SynchronyParams
from repro.sysmodel.periods import GoodPeriod, GoodPeriodKind, PeriodSchedule, step_scope

try:  # property tests shrink with hypothesis and fall back to a seeded loop without it
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    given = None


class TestSynchronyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynchronyParams(phi=0.5, delta=1.0)
        with pytest.raises(ValueError):
            SynchronyParams(phi=1.0, delta=0.0)

    def test_algorithm_timeouts_match_the_paper(self):
        params = SynchronyParams(phi=1.0, delta=2.0)
        # Algorithm 2: ceil(2*2 + (n+2)*1) for n=4 -> 10 receive steps.
        assert params.algorithm2_timeout(4) == 10
        # Algorithm 3: ceil(2*2 + (2n+1)*1) for n=4 -> 13 receive steps.
        assert params.algorithm3_timeout(4) == 13

    def test_timeouts_round_up(self):
        params = SynchronyParams(phi=1.5, delta=2.3)
        assert params.algorithm2_timeout(3) == math.ceil(2 * 2.3 + 5 * 1.5)
        assert params.algorithm3_timeout(3) == math.ceil(2 * 2.3 + 7 * 1.5)


class TestGoodPeriod:
    def test_length_and_containment(self):
        period = GoodPeriod(10.0, 30.0, GoodPeriodKind.PI_GOOD, frozenset({0, 1}))
        assert period.length == 20.0
        schedule = PeriodSchedule(n=2, good_periods=[period])
        assert schedule.period_at(10.0) is period
        assert schedule.period_at(29.999) is period
        assert schedule.period_at(30.0) is None

    def test_initial_period(self):
        period = GoodPeriod(0.0, math.inf, GoodPeriodKind.PI_GOOD, frozenset({0}))
        assert PeriodSchedule(n=1, good_periods=[period]).period_at(1e9) is period

    def test_validation(self):
        with pytest.raises(ValueError):
            GoodPeriod(-1.0, 2.0, GoodPeriodKind.PI_GOOD, frozenset())
        with pytest.raises(ValueError):
            GoodPeriod(5.0, 5.0, GoodPeriodKind.PI_GOOD, frozenset())


class TestPeriodSchedule:
    def test_always_good(self):
        schedule = PeriodSchedule.always_good(3)
        assert schedule.period_at(0.0) is not None
        assert schedule.period_at(12345.0) is not None
        assert schedule.is_synchronous(2, 10.0)
        assert not schedule.is_down(2, 10.0)

    def test_single_good_period(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=50.0, length=20.0, kind=GoodPeriodKind.PI0_DOWN, pi0=[0, 1]
        )
        assert schedule.period_at(49.9) is None
        assert schedule.period_at(50.0) is not None
        assert schedule.period_at(69.9) is not None
        assert schedule.period_at(70.0) is None
        assert schedule.is_synchronous(0, 60.0)
        assert not schedule.is_synchronous(2, 60.0)
        assert schedule.is_down(2, 60.0)
        assert not schedule.is_down(2, 10.0)

    def test_arbitrary_period_outside_processes_are_not_down(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=0.0, length=20.0, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=[0, 1]
        )
        assert not schedule.is_down(2, 10.0)
        assert not schedule.is_synchronous(2, 10.0)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PeriodSchedule(
                n=2,
                good_periods=[
                    GoodPeriod(0.0, 10.0, GoodPeriodKind.PI_GOOD, frozenset({0, 1})),
                    GoodPeriod(5.0, 15.0, GoodPeriodKind.PI_GOOD, frozenset({0, 1})),
                ],
            )

    def test_unknown_pi0_rejected(self):
        with pytest.raises(ValueError):
            PeriodSchedule(
                n=2,
                good_periods=[
                    GoodPeriod(0.0, 10.0, GoodPeriodKind.PI_GOOD, frozenset({5})),
                ],
            )


# --------------------------------------------------------------------------- #
# the simulator's single-lookup classification == is_down / is_synchronous
# --------------------------------------------------------------------------- #

SCOPE_N = 4
KINDS = tuple(GoodPeriodKind)


def build_schedule(spec) -> PeriodSchedule:
    """Consecutive non-overlapping periods from ``(gap, length, kind, pi0)`` items.

    A zero gap makes two periods adjacent, so one instant is the (excluded)
    end of the first and the (included) start of the second.
    """
    periods = []
    time = 0.0
    for gap, length, kind, pi0 in spec:
        start = time + gap
        periods.append(GoodPeriod(start, start + length, kind, frozenset(pi0)))
        time = start + length
    return PeriodSchedule(n=SCOPE_N, good_periods=periods)


def random_spec(rng: random.Random):
    return [
        (
            rng.choice([0.0, 0.0, rng.uniform(0.0, 30.0)]),
            rng.uniform(0.5, 40.0),
            rng.choice(KINDS),
            [p for p in range(SCOPE_N) if rng.random() < 0.6],
        )
        for _ in range(rng.randint(0, 4))
    ]


def probe_times(schedule: PeriodSchedule):
    """On, just before and just after every boundary, plus the far ends."""
    times = [0.0, 1e9]
    boundaries = {
        value
        for period in schedule.good_periods
        for value in (period.start, period.end)
        if not math.isinf(value)
    }
    for boundary in sorted(boundaries):
        times += [
            boundary,
            math.nextafter(boundary, math.inf),
            max(0.0, math.nextafter(boundary, -math.inf)),
        ]
    return times


def check_single_lookup_classification(schedule: PeriodSchedule) -> None:
    for time in probe_times(schedule):
        period = schedule.period_at(time)
        # Half-open [start, end): found on its start, gone on its end.
        containing = [p for p in schedule.good_periods if p.start <= time < p.end]
        assert ([period] if period is not None else []) == containing
        for process in range(SCOPE_N):
            assert step_scope(period, process) == (
                schedule.is_down(process, time),
                schedule.is_synchronous(process, time),
            ), (schedule.good_periods, process, time)


class TestStepScope:
    def test_bad_period_is_neither_down_nor_synchronous(self):
        assert step_scope(None, 0) == (False, False)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_inside_and_outside_pi0(self, kind):
        period = GoodPeriod(0.0, 10.0, kind, frozenset({0, 1}))
        assert step_scope(period, 0) == (False, True)
        assert step_scope(period, 2) == (kind is GoodPeriodKind.PI0_DOWN, False)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_the_schedule_queries_on_seeded_schedules(self, seed):
        check_single_lookup_classification(build_schedule(random_spec(random.Random(seed))))

    if given is not None:

        @settings(max_examples=200, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
                    st.floats(min_value=0.5, max_value=40.0),
                    st.sampled_from(KINDS),
                    st.frozensets(st.integers(min_value=0, max_value=SCOPE_N - 1)),
                ),
                max_size=4,
            )
        )
        def test_matches_the_schedule_queries_on_generated_schedules(self, spec):
            check_single_lookup_classification(build_schedule(spec))
