"""Oracle combinators: a small algebra over heard-of environments.

Because every benign fault is just an absence from a heard-of set, fault
models *compose* by set algebra on the heard-of sets themselves:

* :class:`IntersectOracle` -- both adversaries act: a sender is heard only
  if every component hears it (composition of fault models: the union of
  the faults);
* :class:`SequenceOracle` -- phase scripting: run each component for a fixed
  number of rounds, then move to the next (bad period, then good period,
  then churn, ...).

All combinators work on bitmasks end-to-end, accept any oracle callable
(plain callables are adapted), and are themselves oracles -- so they nest:
``IntersectOracle(n, SequenceOracle(n, ...), RandomOmissionOracle(n, ...))``
is a perfectly good environment.

:class:`IntersectOracle` always queries *every* component, even once the
accumulated mask is already empty: stateful components
(``RandomOmissionOracle``, ``GoodPeriodOracle``, ...) draw lazily per query,
so skipping one would make its seeded sub-stream advance differently
depending on *sibling* outcomes -- violating the documented rule that
concerns cannot perturb each other.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.types import ProcessId, Round
from .base import HOOracle, HOOracleBase, MaskOracleBase, ensure_oracle


def _all_replica_invariant(oracles: Sequence[HOOracleBase]) -> bool:
    # Combinators are replica-invariant exactly when every component is:
    # set algebra over deterministic masks stays deterministic, and one
    # stateful component makes the whole composition per-replica.
    return all(oracle.replica_invariant for oracle in oracles)


class IntersectOracle(MaskOracleBase):
    """Hear a sender only if *every* component environment delivers it.

    This is how independent fault models compose: a static-crash oracle
    intersected with a bursty-loss oracle yields an environment with both
    crashes and bursts.
    """

    def __init__(self, n: int, *oracles: HOOracle) -> None:
        super().__init__(n)
        if not oracles:
            raise ValueError("at least one component oracle is required")
        self.oracles = [ensure_oracle(oracle, n) for oracle in oracles]
        self.replica_invariant = _all_replica_invariant(self.oracles)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        # Every component is queried even after the mask empties: a skipped
        # stateful component would consume its RNG sub-stream differently
        # depending on sibling outcomes.
        mask = self._full
        for oracle in self.oracles:
            mask &= oracle.ho_mask(round, process)
        return mask


class SequenceOracle(MaskOracleBase):
    """Run each component oracle for a fixed number of rounds, in sequence.

    *segments* is a sequence of ``(oracle, rounds)`` pairs; ``rounds`` may
    be ``None`` only for the final segment, meaning "forever".  Component
    oracles see *local* round numbers (rebased to start at 1), so a segment
    behaves exactly as its oracle would from a fresh start -- e.g. a
    ``StaticCrashOracle(n, {p: 1})`` segment of length 5 models a crash that
    lasts 5 rounds, and a trailing ``FaultFreeOracle`` models recovery.

    Queries past the last finite segment fall through to the final segment.
    """

    def __init__(
        self, n: int, segments: Sequence[Tuple[HOOracle, Optional[int]]]
    ) -> None:
        super().__init__(n)
        if not segments:
            raise ValueError("at least one segment is required")
        starts: List[Round] = []
        oracles: List[HOOracleBase] = []
        start = 1
        for index, (oracle, rounds) in enumerate(segments):
            if rounds is None and index != len(segments) - 1:
                raise ValueError("only the final segment may be open-ended (rounds=None)")
            if rounds is not None and rounds <= 0:
                raise ValueError(f"segment lengths must be positive, got {rounds}")
            starts.append(start)
            oracles.append(ensure_oracle(oracle, n))
            if rounds is not None:
                start += rounds
        self._starts = starts
        self._oracles = oracles
        self.replica_invariant = _all_replica_invariant(oracles)

    def _segment_for(self, round: Round) -> Tuple[HOOracleBase, Round]:
        index = len(self._starts) - 1
        while index > 0 and round < self._starts[index]:
            index -= 1
        return self._oracles[index], round - self._starts[index] + 1

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        oracle, local_round = self._segment_for(round)
        return oracle.ho_mask(local_round, process) & self._full


__all__ = [
    "IntersectOracle",
    "SequenceOracle",
]
