"""Dynamic and transient adversary families: churn, bursts, mobility.

The classic zoo (:mod:`repro.adversaries.classic`) covers static and
memoryless fault models.  Real disruption-tolerant systems -- mobile ad-hoc
networks, delay-tolerant store-and-forward meshes -- exhibit *structured*
dynamics: faults that move, partitions that rotate with churn, losses that
come in bursts, leaders that eventually stabilise.  The families below make
those environments expressible at the heard-of level:

* :class:`MobileOmissionOracle` -- at most *faults* senders are silenced per
  round, and the silenced set moves (Santoro-Widmayer-style mobile
  transmission faults);
* :class:`RotatingPartitionOracle` -- the network is partitioned into
  blocks; the partition is redrawn every *period* rounds with per-process
  churn;
* :class:`BurstyLossOracle` -- per-link Gilbert-Elliott loss: each directed
  link flips between a good and a bursty state, so losses cluster in time
  instead of being independent;
* :class:`EventuallyStableCoordinatorOracle` -- before stabilisation, a
  changing pretender coordinator is heard unreliably; from *stable_from* on
  the system behaves synchronously (the round-level shape of an
  eventually-stable leader).

All are mask-native, support an eventual stabilisation round (so liveness
experiments terminate), and draw from named *counter-based* streams
(:meth:`~repro.engine.rng.SeededRng.counter_stream`: ``oracle.mobile``,
``oracle.partition``, ``oracle.burst``, ``oracle.coordinator``).  A draw is
a pure function of the stream key and a counter tuple ``(tag, round, ...)``
-- no sequential cursor -- so the replica-vectorised batch duals
(:mod:`repro.adversaries.batch`) recompute the very same values array-wide,
in any order, bit-identically; each oracle exposes its key and its
:meth:`counter_batch_signature` for that purpose.

An oracle keeps only the state its array dual keeps: the current round's
(or epoch's) answer, so a long run holds O(n) state, never O(rounds · n).
Any ``(round, process)`` may be asked in any order and gets the same bits.
The two recurrences (partition churn chains on the previous epoch,
Gilbert-Elliott link states advance round by round) replay from round 1
when asked for a round behind their current one.  The engines query rounds
in nondecreasing order, so a run never replays; the replay is there so that
any query order gets the same bits, as
``test_any_query_order_gets_the_same_answers`` pins.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.types import ProcessId, Round
from ..engine.rng import SeededRng
from ..rounds.bitmask import mask_of
from .base import MaskOracleBase, oracle_rng


class MobileOmissionOracle(MaskOracleBase):
    """Mobile omission faults: up to *faults* senders are silenced per round.

    Every round, the silenced set is the *faults* processes with the
    smallest counter draws ``hash(round, q)`` on the ``oracle.mobile``
    stream -- a fresh uniform subset per round; their round messages are
    lost at every receiver (send omission), while every other transmission
    arrives.  The faulty set *moves*: over time every process is hit, but
    never more than *faults* of them in any single round -- the classic
    mobile-failure adversary, which no static crash model can express.

    From *stable_from* on (if given) no faults occur, so runs eventually
    satisfy any good-period predicate.  Receivers always hear themselves.
    """

    def __init__(
        self,
        n: int,
        faults: int = 1,
        seed: int = 0,
        stable_from: Optional[Round] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        if not 0 <= faults <= n:
            raise ValueError(f"faults must be in 0..{n}, got {faults}")
        self.faults = faults
        self.stable_from = stable_from
        self._ctr = oracle_rng(seed, rng).counter_stream("oracle.mobile")
        #: the last round asked and its silenced mask: every receiver of a
        #: round asks for the same mask, which costs a sort to draw.
        self._silenced: Tuple[Optional[Round], int] = (None, 0)

    def counter_batch_signature(self) -> Tuple[Any, ...]:
        """The construction state a batch dual must see shared by all replicas."""
        return ("mobile-omission", self.n, self.faults, self.stable_from)

    def _silenced_mask(self, round: Round) -> int:
        if self._silenced[0] != round:
            ctr = self._ctr
            order = sorted(range(self.n), key=lambda q: (ctr.hash(round, q), q))
            self._silenced = (round, mask_of(order[: self.faults]))
        return self._silenced[1]

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if self.stable_from is not None and round >= self.stable_from:
            return self._full
        if self.faults == 0:
            return self._full
        return (self._full & ~self._silenced_mask(round)) | (1 << process)


class RotatingPartitionOracle(MaskOracleBase):
    """A partition that is redrawn every *period* rounds, with churn.

    The process set is split into *blocks* blocks.  Every *period* rounds a
    new epoch starts: each process keeps its block with probability
    ``1 - churn`` and otherwise moves to a uniformly random block.  Both
    draws are counter-based on the ``oracle.partition`` stream -- churn at
    ``(0, epoch, q)``, the new block at ``(1, epoch, q)`` -- but the
    *assignment* still chains on the previous epoch, so epochs are computed
    in order.  ``churn=1.0`` reshuffles the partition completely each
    epoch; ``churn=0.0`` freezes the initial random partition.  Within an
    epoch, a process hears exactly its block (which always contains itself).

    From *heal_from* on (if given) the partition heals and communication is
    fault free.  This is the round-level shape of the partition-heavy,
    churning link dynamics of disruption-tolerant networks.
    """

    def __init__(
        self,
        n: int,
        blocks: int = 2,
        period: int = 5,
        churn: float = 0.2,
        seed: int = 0,
        heal_from: Optional[Round] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= churn <= 1.0:
            raise ValueError(f"churn must be in [0, 1], got {churn}")
        self.blocks = blocks
        self.period = period
        self.churn = churn
        self.heal_from = heal_from
        self._ctr = oracle_rng(seed, rng).counter_stream("oracle.partition")
        #: the last epoch drawn (-1: none yet), its per-process block
        #: assignment -- churn only needs the previous epoch -- and its
        #: per-process block mask, so that ho_mask is a lookup.
        self._epoch = -1
        self._assignment: List[int] = []
        self._epoch_masks: List[int] = []

    def counter_batch_signature(self) -> Tuple[Any, ...]:
        """The construction state a batch dual must see shared by all replicas."""
        return (
            "rotating-partition",
            self.n,
            self.blocks,
            self.period,
            self.churn,
            self.heal_from,
        )

    def _masks_for_epoch(self, epoch: int) -> List[int]:
        if epoch == self._epoch:
            return self._epoch_masks
        if epoch < self._epoch:
            # Behind the recurrence: replay it from the first epoch.
            self._epoch = -1
        ctr = self._ctr
        while self._epoch < epoch:
            e = self._epoch + 1
            previous = self._assignment
            self._assignment = [
                ctr.mod(self.blocks, 1, e, q)
                if e == 0 or ctr.unit(0, e, q) < self.churn
                else previous[q]
                for q in range(self.n)
            ]
            self._epoch = e
        block_masks = [0] * self.blocks
        for q, block in enumerate(self._assignment):
            block_masks[block] |= 1 << q
        self._epoch_masks = [block_masks[block] for block in self._assignment]
        return self._epoch_masks

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if self.heal_from is not None and round >= self.heal_from:
            return self._full
        return self._masks_for_epoch((round - 1) // self.period)[process]


class BurstyLossOracle(MaskOracleBase):
    """Per-link Gilbert-Elliott loss: bursts, not independent coin flips.

    Each directed link (sender -> receiver) carries a two-state Markov
    chain: in the *good* state a transmission is lost with probability
    *loss_good* (default 0), in the *burst* state with probability
    *loss_burst* (default 1).  Per round, a good link enters a burst with
    probability *p_burst* and a bursty link recovers with probability
    *p_recover* -- so the expected burst length is ``1 / p_recover`` rounds,
    and losses cluster the way interference and congestion actually behave.

    Draws are counter-based on the ``oracle.burst`` stream: the state
    transition of link ``q -> p`` in round ``r`` consumes
    ``unit(0, r, p, q)``, the loss coin ``unit(1, r, p, q)``; link states
    still advance round by round (the Markov chain is a recurrence), so any
    query order replays identically.  From *stable_from* on (if given) all
    links are forced good and lossless.  Receivers always hear themselves.
    """

    def __init__(
        self,
        n: int,
        p_burst: float = 0.1,
        p_recover: float = 0.3,
        loss_burst: float = 1.0,
        loss_good: float = 0.0,
        seed: int = 0,
        stable_from: Optional[Round] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        for name, value in (
            ("p_burst", p_burst),
            ("p_recover", p_recover),
            ("loss_burst", loss_burst),
            ("loss_good", loss_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_burst = p_burst
        self.p_recover = p_recover
        self.loss_burst = loss_burst
        self.loss_good = loss_good
        self.stable_from = stable_from
        self._ctr = oracle_rng(seed, rng).counter_stream("oracle.burst")
        #: the last round drawn (0: none yet) and, per receiver p, its
        #: bursty-link mask (bit q set iff link q -> p is in a burst) and
        #: its heard mask in that round.
        self._computed_round: Round = 0
        self._burst_state: List[int] = [0] * n
        self._heard: List[int] = [0] * n

    def counter_batch_signature(self) -> Tuple[Any, ...]:
        """The construction state a batch dual must see shared by all replicas."""
        return (
            "bursty-loss",
            self.n,
            self.p_burst,
            self.p_recover,
            self.loss_burst,
            self.loss_good,
            self.stable_from,
        )

    def _advance_to(self, round: Round) -> None:
        if round < self._computed_round:
            # Behind the recurrence: replay it from round 1.
            self._computed_round = 0
            self._burst_state = [0] * self.n
        while self._computed_round < round:
            self._computed_round += 1
            current = self._computed_round
            ctr = self._ctr
            for p in range(self.n):
                state = self._burst_state[p]
                new_state = 0
                heard = 0
                bit = 1
                for q in range(self.n):
                    u = ctr.unit(0, current, p, q)
                    if state & bit:
                        bursty = u >= self.p_recover
                    else:
                        bursty = u < self.p_burst
                    if bursty:
                        new_state |= bit
                    loss = self.loss_burst if bursty else self.loss_good
                    # Skipping the loss coin when it cannot lose is safe:
                    # counter draws have no cursor to shift.
                    if q == p or loss <= 0.0 or ctr.unit(1, current, p, q) >= loss:
                        heard |= bit
                    bit <<= 1
                self._burst_state[p] = new_state
                self._heard[p] = heard

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if self.stable_from is not None and round >= self.stable_from:
            return self._full
        self._advance_to(round)
        return self._heard[process]


class EventuallyStableCoordinatorOracle(MaskOracleBase):
    """A coordinator that keeps changing until the system stabilises.

    Before *stable_from*, each round has a *pretender* coordinator (the
    counter draw ``(0, round)`` on the ``oracle.coordinator`` stream,
    modulo n); every process hears the pretender with probability
    ``1 - flaky_probability`` (the flakiness coin ``unit(1, round, p)``),
    itself always, and each other process q with probability
    *background_probability* (the coin ``unit(2, round, p, q)``) -- the
    round-level shape of an unreliable leader-election phase.  From
    *stable_from* on, communication is fault free (and :meth:`coordinator`
    reports the fixed *stable_coordinator*), which is exactly the
    eventually-stable-leader assumption coordinated algorithms such as
    LastVoting thrive on.
    """

    def __init__(
        self,
        n: int,
        stable_from: Round,
        stable_coordinator: ProcessId = 0,
        flaky_probability: float = 0.3,
        background_probability: float = 0.4,
        seed: int = 0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(n)
        if stable_from <= 0:
            raise ValueError(f"stable_from must be >= 1, got {stable_from}")
        if not 0 <= stable_coordinator < n:
            raise ValueError(f"stable_coordinator outside 0..{n - 1}")
        for name, value in (
            ("flaky_probability", flaky_probability),
            ("background_probability", background_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.stable_from = stable_from
        self.stable_coordinator = stable_coordinator
        self.flaky_probability = flaky_probability
        self.background_probability = background_probability
        self._ctr = oracle_rng(seed, rng).counter_stream("oracle.coordinator")

    def counter_batch_signature(self) -> Tuple[Any, ...]:
        """The construction state a batch dual must see shared by all replicas."""
        return (
            "eventually-stable-coordinator",
            self.n,
            self.stable_from,
            self.stable_coordinator,
            self.flaky_probability,
            self.background_probability,
        )

    def coordinator(self, round: Round) -> ProcessId:
        """The coordinator of *round*: the pretender before stabilisation, fixed after."""
        if round >= self.stable_from:
            return self.stable_coordinator
        return self._ctr.mod(self.n, 0, round)

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if round >= self.stable_from:
            return self._full
        ctr = self._ctr
        mask = 0
        bit = 1
        for q in range(self.n):
            if ctr.unit(2, round, process, q) < self.background_probability:
                mask |= bit
            bit <<= 1
        pretender = 1 << self.coordinator(round)
        if ctr.unit(1, round, process) >= self.flaky_probability:
            mask |= pretender
        else:
            mask &= ~pretender
        return mask | (1 << process)


__all__ = [
    "MobileOmissionOracle",
    "RotatingPartitionOracle",
    "BurstyLossOracle",
    "EventuallyStableCoordinatorOracle",
]
