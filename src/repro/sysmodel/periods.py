"""Good and bad periods of the system model (Section 4.1).

The system alternates between *good* and *bad* periods.  In a good period
the synchrony and fault assumptions hold for a subset ``pi0`` of the
processes (property ``pi0-sync``); in a bad period the behaviour is
arbitrary (crashes, recoveries, omissions, loss, asynchrony), only malice is
excluded.

The paper defines three kinds of good periods:

* ``PI_GOOD``      -- ``pi0 = Pi``: all processes are up and synchronous;
* ``PI0_DOWN``     -- processes in pi0 are up and synchronous, the other
  processes are *down*, do not recover, and none of their messages are in
  transit during the period;
* ``PI0_ARBITRARY`` -- processes in pi0 are up and synchronous, there is no
  restriction whatsoever on the other processes and on the links to and from
  them.

Case ``PI_GOOD`` is the special case of ``PI0_DOWN`` with an empty
complement; the simulator treats it that way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.types import ProcessId, all_processes, validate_process_subset


class GoodPeriodKind(enum.Enum):
    """The three kinds of good periods of Section 4.1."""

    PI_GOOD = "pi-good"
    PI0_DOWN = "pi0-down"
    PI0_ARBITRARY = "pi0-arbitrary"


@dataclass(frozen=True)
class GoodPeriod:
    """A good period: a time interval, its kind and its synchronous core pi0."""

    start: float
    end: float
    kind: GoodPeriodKind
    pi0: FrozenSet[ProcessId]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"good period cannot start before time 0, got {self.start}")
        if self.end <= self.start and not math.isinf(self.end):
            raise ValueError(
                f"good period must have positive length, got [{self.start}, {self.end}]"
            )

    @property
    def length(self) -> float:
        """The (normalised) length of the period."""
        return self.end - self.start

    @property
    def is_initial(self) -> bool:
        """Whether this is an *initial* good period (starts at time 0)."""
        return self.start == 0.0

    def contains(self, time: float) -> bool:
        """Whether *time* falls inside the period (half-open ``[start, end)``)."""
        return self.start <= time < self.end


def step_scope(period: Optional[GoodPeriod], process: ProcessId) -> Tuple[bool, bool]:
    """``(down, synchronous)`` for *process* under *period* (``None`` = bad period).

    The two answers :meth:`PeriodSchedule.is_down` and
    :meth:`PeriodSchedule.is_synchronous` give for the same instant, derived
    from one already-resolved :meth:`PeriodSchedule.period_at` lookup -- the
    step-level simulator resolves the period once per step event and
    classifies the stepping process with this.
    """
    if period is None:
        return False, False
    if process in period.pi0:
        return False, True
    return period.kind is GoodPeriodKind.PI0_DOWN, False


@dataclass
class PeriodSchedule:
    """The alternation of good and bad periods over the run.

    Any instant not covered by a good period is part of a bad period.  Good
    periods must not overlap.
    """

    n: int
    good_periods: List[GoodPeriod] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.good_periods = sorted(self.good_periods, key=lambda p: p.start)
        for earlier, later in zip(self.good_periods, self.good_periods[1:]):
            if later.start < earlier.end:
                raise ValueError(
                    f"good periods overlap: [{earlier.start}, {earlier.end}) and "
                    f"[{later.start}, {later.end})"
                )
        for period in self.good_periods:
            if not period.pi0.issubset(all_processes(self.n)):
                raise ValueError("pi0 contains unknown processes")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def always_good(cls, n: int, kind: GoodPeriodKind = GoodPeriodKind.PI_GOOD,
                    pi0: Optional[Iterable[ProcessId]] = None) -> "PeriodSchedule":
        """A single initial good period lasting forever (the "nice run" scenario)."""
        pi0_set = all_processes(n) if pi0 is None else validate_process_subset(pi0, n)
        return cls(n=n, good_periods=[GoodPeriod(0.0, math.inf, kind, pi0_set)])

    @classmethod
    def single_good_period(
        cls,
        n: int,
        start: float,
        length: float,
        kind: GoodPeriodKind,
        pi0: Optional[Iterable[ProcessId]] = None,
    ) -> "PeriodSchedule":
        """A bad period from 0 to *start*, then one good period of *length*."""
        pi0_set = all_processes(n) if pi0 is None else validate_process_subset(pi0, n)
        return cls(n=n, good_periods=[GoodPeriod(start, start + length, kind, pi0_set)])

    @classmethod
    def alternating(
        cls,
        n: int,
        good_length: float,
        bad_length: float,
        count: int,
        kind: GoodPeriodKind = GoodPeriodKind.PI_GOOD,
        pi0: Optional[Iterable[ProcessId]] = None,
        first_bad: bool = True,
    ) -> "PeriodSchedule":
        """*count* good periods of *good_length* separated by bad periods of *bad_length*."""
        pi0_set = all_processes(n) if pi0 is None else validate_process_subset(pi0, n)
        periods = []
        time = bad_length if first_bad else 0.0
        for _ in range(count):
            periods.append(GoodPeriod(time, time + good_length, kind, pi0_set))
            time += good_length + bad_length
        return cls(n=n, good_periods=periods)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def period_at(self, time: float) -> Optional[GoodPeriod]:
        """The good period containing *time*, or ``None`` when in a bad period."""
        for period in self.good_periods:
            # Sorted and non-overlapping: the first period starting after
            # *time* rules out every later one.
            if time < period.start:
                break
            if time < period.end:
                return period
        return None

    def is_good(self, time: float) -> bool:
        """Whether *time* falls inside some good period."""
        return self.period_at(time) is not None

    def is_synchronous(self, process: ProcessId, time: float) -> bool:
        """Whether *process* is bound by ``pi0-sync`` at *time*."""
        period = self.period_at(time)
        return period is not None and process in period.pi0

    def is_down(self, process: ProcessId, time: float) -> bool:
        """Whether *process* is forced down at *time* (pi0-down good period, outside pi0)."""
        period = self.period_at(time)
        if period is None or period.kind != GoodPeriodKind.PI0_DOWN:
            return False
        return process not in period.pi0

    def next_boundary_after(self, time: float) -> Optional[float]:
        """The next period start or end strictly after *time* (``None`` if none)."""
        boundaries: List[float] = []
        for period in self.good_periods:
            for value in (period.start, period.end):
                if value > time and not math.isinf(value):
                    boundaries.append(value)
        return min(boundaries) if boundaries else None

    def boundaries(self) -> Sequence[float]:
        """All finite period boundaries in increasing order."""
        values = set()
        for period in self.good_periods:
            values.add(period.start)
            if not math.isinf(period.end):
                values.add(period.end)
        return sorted(values)


__all__ = ["GoodPeriodKind", "GoodPeriod", "PeriodSchedule", "step_scope"]
