"""Failure-detector oracles: ◇S (crash-stop) and ◇Su (crash-recovery).

The failure-detector model is the baseline the paper argues against
(Section 1, Section 2, Appendix A).  A failure detector is an oracle local
to each process; its output only has to satisfy *eventual* completeness and
accuracy properties, so any finite prefix of bad output is allowed.

The oracles here are *ground-truth based*: they look at the simulator's
actual crash state, but deliberately behave badly (arbitrary suspicions,
noisy epochs) before a configurable stabilisation time.  This mirrors the
standard way failure-detector algorithms are evaluated -- the algorithm must
cope with the bad prefix and exploit the eventual guarantees -- while
keeping runs deterministic.

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

# The oracles draw their pre-stabilisation noise from random.Random(seed)
# directly: behavioural tests pin outcomes of this exact draw sequence
# (e.g. that stabilization_time 10 vs 60 yields different decision times at
# seed 0), so re-routing through SeededRng's hashed sub-seeds would silently
# re-roll every detector experiment.  The draws are still seeded, isolated
# per detector instance, and never shared with any other concern.  REP001's
# scope leaves this module out (repro.lint.determinism.RANDOM_OWNERS).
import random

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from ..core.types import ProcessId
from ..des.simulator import EventSimulator


class EventuallyStrongDetector:
    """The ◇S failure detector for the crash-stop model.

    ``query`` returns the set of *suspected* processes.  Before
    *stabilization_time* any process may be wrongly suspected (with
    probability *false_suspicion_probability* per query and per process);
    afterwards exactly the crashed processes are suspected.
    """

    def __init__(
        self,
        stabilization_time: float = 0.0,
        false_suspicion_probability: float = 0.3,
        seed: int = 0,
    ) -> None:
        if stabilization_time < 0:
            raise ValueError("stabilization_time must be non-negative")
        if not 0.0 <= false_suspicion_probability <= 1.0:
            raise ValueError("false_suspicion_probability must be in [0, 1]")
        self.stabilization_time = stabilization_time
        self.false_suspicion_probability = false_suspicion_probability
        self._rng = random.Random(seed)

    def query(self, simulator: EventSimulator, process: ProcessId) -> FrozenSet[ProcessId]:
        """The set of processes *process* currently suspects."""
        crashed = frozenset(q for q in range(simulator.n) if not simulator.is_up(q))
        if simulator.now >= self.stabilization_time:
            return crashed
        noisy = set(crashed)
        for q in range(simulator.n):
            if q != process and self._rng.random() < self.false_suspicion_probability:
                noisy.add(q)
        return frozenset(noisy)

    def __call__(self, simulator: EventSimulator, process: ProcessId) -> FrozenSet[ProcessId]:
        return self.query(simulator, process)


@dataclass(frozen=True)
class TrustListOutput:
    """The output of ◇Su: a trust list and an epoch number per process."""

    trustlist: FrozenSet[ProcessId]
    epoch: Mapping[ProcessId, int]

    def trusts(self, process: ProcessId) -> bool:
        """Whether *process* is currently trusted."""
        return process in self.trustlist


class EventuallyStrongRecoveryDetector:
    """The ◇Su failure detector for the crash-recovery model (Aguilera et al.).

    ``query`` returns a :class:`TrustListOutput`.  After stabilisation the
    trust list contains exactly the *good* processes (those that are up and
    will stay up given the configured fault schedule) and the epoch of every
    good process stops increasing.  Before stabilisation, trust and epochs
    are noisy.
    """

    def __init__(
        self,
        stabilization_time: float = 0.0,
        mistrust_probability: float = 0.3,
        seed: int = 0,
    ) -> None:
        if stabilization_time < 0:
            raise ValueError("stabilization_time must be non-negative")
        if not 0.0 <= mistrust_probability <= 1.0:
            raise ValueError("mistrust_probability must be in [0, 1]")
        self.stabilization_time = stabilization_time
        self.mistrust_probability = mistrust_probability
        self._rng = random.Random(seed)

    def query(self, simulator: EventSimulator, process: ProcessId) -> TrustListOutput:
        epochs: Dict[ProcessId, int] = {
            q: simulator.crash_count[q] for q in range(simulator.n)
        }
        if simulator.now >= self.stabilization_time:
            good = simulator.eventually_up_processes()
            trusted = frozenset(q for q in good if simulator.is_up(q)) | frozenset(
                {process} if simulator.is_up(process) else set()
            )
            return TrustListOutput(trustlist=trusted, epoch=epochs)
        trusted = set()
        for q in range(simulator.n):
            if simulator.is_up(q) and (
                q == process or self._rng.random() >= self.mistrust_probability
            ):
                trusted.add(q)
            if self._rng.random() < self.mistrust_probability / 2:
                epochs[q] = epochs.get(q, 0) + 1
        return TrustListOutput(trustlist=frozenset(trusted), epoch=epochs)

    def __call__(self, simulator: EventSimulator, process: ProcessId) -> TrustListOutput:
        return self.query(simulator, process)


__all__ = [
    "EventuallyStrongDetector",
    "EventuallyStrongRecoveryDetector",
    "TrustListOutput",
]
