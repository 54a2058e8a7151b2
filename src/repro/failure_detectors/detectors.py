"""Failure-detector oracles: ◇S (crash-stop) and ◇Su (crash-recovery).

The failure-detector model is the baseline the paper argues against
(Section 1, Section 2, Appendix A).  A failure detector is an oracle local
to each process; its output only has to satisfy *eventual* completeness and
accuracy properties, so any finite prefix of bad output is allowed.

The oracles here are *ground-truth based*: they read the step-level
simulator's process state (``runtimes[q].up`` and ``runtimes[q].stats``),
but deliberately behave badly (arbitrary suspicions, noisy epochs) before
they stabilise.  The run's environment fixes when that is: at the start of
the simulator's last good period, the paper's own premise for the HO stack
("eventually accurate" = accurate from the good period on), and the
processes that are eventually up are that period's pi0.  A schedule without
a good period never stabilises.  The noise is drawn from the ``detector``
sub-stream of the run's seed.

* :class:`EventuallyStrongDetector` implements ◇S for the crash-stop model:
  after stabilisation it suspects exactly the crashed processes (strong
  completeness + eventual weak accuracy).
* :class:`EventuallyStrongRecoveryDetector` implements ◇Su, the
  crash-recovery detector of Aguilera et al.: its output is a *trust list*
  plus an *epoch number* per trusted process; eventually the trust list
  contains exactly the good (eventually-up) processes and their epochs stop
  increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from ..core.types import ProcessId
from ..engine.rng import SeededRng
from ..sysmodel.simulator import SystemSimulator


class _Oracle:
    """What both oracles share: the simulator, its last good period and the noise stream."""

    def __init__(self, simulator: SystemSimulator, seed: int, noise: float) -> None:
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise probability must be in [0, 1], got {noise}")
        self.simulator = simulator
        periods = simulator.schedule.good_periods
        self.stabilization_time = periods[-1].start if periods else math.inf
        self.eventually_up: FrozenSet[ProcessId] = periods[-1].pi0 if periods else frozenset()
        self._rng = SeededRng(seed).stream("detector")

    def _stable(self) -> bool:
        return self.simulator.now >= self.stabilization_time


class EventuallyStrongDetector(_Oracle):
    """The ◇S failure detector for the crash-stop model.

    A query returns the set of *suspected* processes.  Before stabilisation
    any process may be wrongly suspected (with probability
    *false_suspicion_probability* per query and per process); afterwards
    exactly the crashed processes are.
    """

    def __init__(
        self, simulator: SystemSimulator, seed: int, false_suspicion_probability: float = 0.3
    ) -> None:
        super().__init__(simulator, seed, false_suspicion_probability)
        self.false_suspicion_probability = false_suspicion_probability

    def __call__(self, process: ProcessId) -> FrozenSet[ProcessId]:
        runtimes = self.simulator.runtimes
        crashed = frozenset(q for q, runtime in enumerate(runtimes) if not runtime.up)
        if self._stable():
            return crashed
        noisy = set(crashed)
        for q in range(len(runtimes)):
            if q != process and self._rng.random() < self.false_suspicion_probability:
                noisy.add(q)
        return frozenset(noisy)


@dataclass(frozen=True)
class TrustListOutput:
    """The output of ◇Su: a trust list and an epoch number per process."""

    trustlist: FrozenSet[ProcessId]
    epoch: Mapping[ProcessId, int]

    def trusts(self, process: ProcessId) -> bool:
        """Whether *process* is currently trusted."""
        return process in self.trustlist


class EventuallyStrongRecoveryDetector(_Oracle):
    """The ◇Su failure detector for the crash-recovery model (Aguilera et al.).

    A query returns a :class:`TrustListOutput`; a process's epoch is its
    crash count.  After stabilisation the trust list contains exactly the
    good processes that are up (plus the querying process, when up) and the
    epochs stop increasing.  Before stabilisation, trust and epochs are
    noisy.
    """

    def __init__(
        self, simulator: SystemSimulator, seed: int, mistrust_probability: float = 0.3
    ) -> None:
        super().__init__(simulator, seed, mistrust_probability)
        self.mistrust_probability = mistrust_probability

    def __call__(self, process: ProcessId) -> TrustListOutput:
        runtimes = self.simulator.runtimes
        epochs: Dict[ProcessId, int] = {
            q: runtime.stats.crashes for q, runtime in enumerate(runtimes)
        }
        if self._stable():
            trusted = frozenset(q for q in self.eventually_up if runtimes[q].up)
            if runtimes[process].up:
                trusted |= {process}
            return TrustListOutput(trustlist=trusted, epoch=epochs)
        trusted = set()
        for q, runtime in enumerate(runtimes):
            if runtime.up and (q == process or self._rng.random() >= self.mistrust_probability):
                trusted.add(q)
            if self._rng.random() < self.mistrust_probability / 2:
                epochs[q] += 1
        return TrustListOutput(trustlist=frozenset(trusted), epoch=epochs)


__all__ = [
    "EventuallyStrongDetector",
    "EventuallyStrongRecoveryDetector",
    "TrustListOutput",
]
