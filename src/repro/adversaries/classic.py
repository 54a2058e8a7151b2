"""The classic heard-of oracle zoo: static crashes, omissions, partitions.

These are the oracles the unit tests, property-based tests, examples and
benchmark E1 (Table 1) have always used: some are built to *satisfy* a given
communication predicate (so that liveness can be demonstrated), others are
built to *violate* it (so that the loss of liveness -- but never of safety --
can be demonstrated).

All of them are mask-native (:class:`~repro.adversaries.base.MaskOracleBase`)
and all randomness flows through named :class:`~repro.engine.rng.SeededRng`
sub-streams; passing the same ``rng`` that drives the simulator puts oracle
noise and simulator noise under one run seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ..core.types import ProcessId, Round, validate_process_subset
from ..engine.rng import SeededRng
from ..rounds.bitmask import mask_of
from .base import MaskOracleBase, bernoulli_mask, oracle_rng


class FaultFreeOracle(MaskOracleBase):
    """No transmission faults at all: ``HO(p, r) = Pi`` for every p and r."""

    replica_invariant = True

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        return self._full


class StaticCrashOracle(MaskOracleBase):
    """Permanent-crash (SP) faults: crashed processes are never heard of again.

    *crash_rounds* maps a process to the first round in which its messages
    are no longer received (it "crashed before sending" in that round).
    """

    replica_invariant = True

    def __init__(self, n: int, crash_rounds: Mapping[ProcessId, Round]) -> None:
        super().__init__(n)
        for p, r in crash_rounds.items():
            if not 0 <= p < n:
                raise ValueError(f"crashed process {p} outside 0..{n - 1}")
            if r <= 0:
                raise ValueError(f"crash round must be >= 1, got {r} for process {p}")
        self.crash_rounds = dict(crash_rounds)
        #: distinct crash rounds, ascending, with the mask of processes
        #: already crashed at that round -- lets ho_mask be a lookup.
        self._steps: Tuple[Tuple[Round, int], ...] = self._build_steps()

    def _build_steps(self) -> Tuple[Tuple[Round, int], ...]:
        steps = []
        for boundary in sorted(set(self.crash_rounds.values())):
            dead = mask_of(p for p, r in self.crash_rounds.items() if r <= boundary)
            steps.append((boundary, self._full & ~dead))
        return tuple(steps)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        alive = self._full
        for boundary, mask in self._steps:
            if round >= boundary:
                alive = mask
            else:
                break
        return alive


class RandomOmissionOracle(MaskOracleBase):
    """Dynamic transient (DT) faults: each transmission is lost independently.

    Every (sender, receiver, round) transmission is dropped with probability
    *loss_probability*; the receiver always hears of itself when
    *always_hear_self* is set.  Randomness comes from the ``oracle.loss``
    sub-stream of the run's :class:`SeededRng`, so runs are reproducible and
    loss draws never perturb any other concern.  The oracle memoises its
    choices so that repeated queries for the same (round, process) are
    consistent.
    """

    def __init__(
        self,
        n: int,
        loss_probability: float,
        seed: int = 0,
        always_hear_self: bool = True,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {loss_probability}")
        self.loss_probability = loss_probability
        self.always_hear_self = always_hear_self
        self._stream = oracle_rng(seed, rng).stream("oracle.loss")
        self._memo: Dict[Tuple[Round, ProcessId], int] = {}

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        key = (round, process)
        mask = self._memo.get(key)
        if mask is None:
            stream = self._stream
            loss = self.loss_probability
            mask = 0
            bit = 1
            for q in range(self.n):
                if q == process and self.always_hear_self:
                    mask |= bit
                elif stream.random() >= loss:
                    mask |= bit
                bit <<= 1
            self._memo[key] = mask
        return mask


class PartitionOracle(MaskOracleBase):
    """A network partition: processes only hear of their own block.

    *blocks* is a partition of (a subset of) Pi; processes not mentioned in
    any block form an implicit singleton block.  Optionally the partition
    *heals* from round *heal_round* on, after which communication is
    fault free.
    """

    replica_invariant = True

    def __init__(
        self,
        n: int,
        blocks: Sequence[Iterable[ProcessId]],
        heal_round: Optional[Round] = None,
    ) -> None:
        super().__init__(n)
        self._block_mask: Dict[ProcessId, int] = {}
        covered: Set[ProcessId] = set()
        for block in blocks:
            block_set = validate_process_subset(block, n)
            if block_set & covered:
                raise ValueError("partition blocks must be disjoint")
            covered |= block_set
            block_mask = mask_of(block_set)
            for p in block_set:
                self._block_mask[p] = block_mask
        for p in range(n):
            if p not in self._block_mask:
                self._block_mask[p] = 1 << p
        self.heal_round = heal_round

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if self.heal_round is not None and round >= self.heal_round:
            return self._full
        return self._block_mask[process]


class SilentRoundsOracle(MaskOracleBase):
    """Rounds in *silent_rounds* deliver nothing at all; other rounds are fault free.

    ``P_otr`` explicitly allows rounds in which no messages are received;
    this oracle exercises that corner (used in tests of Theorem 1).
    """

    replica_invariant = True

    def __init__(self, n: int, silent_rounds: Iterable[Round]) -> None:
        super().__init__(n)
        self.silent_rounds = frozenset(silent_rounds)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if round in self.silent_rounds:
            return 0
        return self._full


class ScriptedOracle(MaskOracleBase):
    """An oracle driven by an explicit script ``{(round, process): HO set}``.

    Rounds/processes not covered by the script fall back to *default*
    (the full process set unless stated otherwise).  This is the work-horse
    of unit tests that need precise control over heard-of sets.
    """

    replica_invariant = True

    def __init__(
        self,
        n: int,
        script: Mapping[Tuple[Round, ProcessId], Iterable[ProcessId]],
        default: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        super().__init__(n)
        self.script = {
            key: validate_process_subset(value, n) for key, value in script.items()
        }
        self._script_masks = {key: mask_of(value) for key, value in self.script.items()}
        self.default = (
            frozenset(range(n)) if default is None else validate_process_subset(default, n)
        )
        self._default_mask = mask_of(self.default)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        return self._script_masks.get((round, process), self._default_mask)


class GoodPeriodOracle(MaskOracleBase):
    """An oracle shaped like the paper's good/bad period alternation, at round granularity.

    Rounds before *good_from* are "bad": heard-of sets are drawn adversarially
    (every transmission dropped with probability *bad_loss_probability*, and
    the receiving process is partitioned away from a random half of the
    system with probability *bad_partition_probability*).  From round
    *good_from* to *good_to* (inclusive; ``None`` means forever) the rounds
    are perfect for the processes in *pi0*: every ``p in pi0`` has
    ``HO(p, r) = pi0``.  Processes outside pi0 keep experiencing bad rounds.

    Loss draws come from the ``oracle.loss`` sub-stream and partition draws
    from ``oracle.partition``, so changing one noise model cannot shift the
    other in time.

    This is the round-level analogue of a "pi0-down" good period and is used
    to construct collections satisfying ``P_su``/``P_2otr`` without running
    the full step-level simulator.
    """

    def __init__(
        self,
        n: int,
        pi0: Iterable[ProcessId],
        good_from: Round,
        good_to: Optional[Round] = None,
        bad_loss_probability: float = 0.6,
        bad_partition_probability: float = 0.3,
        seed: int = 0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        self.pi0 = validate_process_subset(pi0, n)
        self._pi0_mask = mask_of(self.pi0)
        if good_from <= 0:
            raise ValueError(f"good_from must be >= 1, got {good_from}")
        self.good_from = good_from
        self.good_to = good_to
        self.bad_loss_probability = bad_loss_probability
        self.bad_partition_probability = bad_partition_probability
        master = oracle_rng(seed, rng)
        self._loss = master.stream("oracle.loss")
        self._partition = master.stream("oracle.partition")
        self._memo: Dict[Tuple[Round, ProcessId], int] = {}

    def _in_good_period(self, round: Round) -> bool:
        if round < self.good_from:
            return False
        return self.good_to is None or round <= self.good_to

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if self._in_good_period(round) and process in self.pi0:
            return self._pi0_mask
        key = (round, process)
        mask = self._memo.get(key)
        if mask is None:
            # Bad round: independent loss per sender (the receiver always
            # hears of itself), then possibly a partition away from a random
            # half of the system.
            mask = bernoulli_mask(self._loss, self.n, 1.0 - self.bad_loss_probability)
            mask |= 1 << process
            if self._partition.random() < self.bad_partition_probability:
                half = self._partition.sample(range(self.n), self.n // 2)
                mask &= mask_of(half) | (1 << process)
            self._memo[key] = mask
        return mask


class CounterKernelOracle(MaskOracleBase):
    """Rounds satisfy ``P_k(pi0, ., .)`` but are *not* space uniform.

    Every ``p in pi0`` hears of all of pi0 plus an independent coin-flip
    subset of the outsiders, everyone else an arbitrary subset plus itself.
    This deliberately violates ``P_su`` while satisfying ``P_k``: the
    canonical input of the Algorithm 4 translation (Theorem 8).  Each coin
    is a pure function of ``(stream key, tag, round, receiver, sender)`` on
    the ``oracle.kernel`` counter stream, so
    :class:`~repro.adversaries.counter_batch.
    CounterKernelBatchDual` recomputes all of them array-wide with no
    per-replica query loop.  Tag 0 addresses the member extras, tag 1 the
    outsider subsets, keeping the two draw types decorrelated.
    """

    def __init__(
        self,
        n: int,
        pi0: Iterable[ProcessId],
        seed: int = 0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        self.pi0 = validate_process_subset(pi0, n)
        self._pi0_mask = mask_of(self.pi0)
        self._ctr = oracle_rng(seed, rng).counter_stream("oracle.kernel")

    def counter_batch_signature(self) -> Tuple[object, ...]:
        return ("counter-kernel", self.n, self._pi0_mask)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        ctr = self._ctr
        if (1 << process) & self._pi0_mask:
            mask = self._pi0_mask
            outside = self._full & ~self._pi0_mask
            bit = 1
            for q in range(self.n):
                if outside & bit and ctr.below(0.5, 0, round, process, q):
                    mask |= bit
                bit <<= 1
        else:
            mask = 1 << process
            bit = 1
            for q in range(self.n):
                if ctr.below(0.5, 1, round, process, q):
                    mask |= bit
                bit <<= 1
        return mask


__all__ = [
    "FaultFreeOracle",
    "StaticCrashOracle",
    "RandomOmissionOracle",
    "PartitionOracle",
    "SilentRoundsOracle",
    "ScriptedOracle",
    "GoodPeriodOracle",
    "CounterKernelOracle",
]
