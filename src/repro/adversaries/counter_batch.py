"""Replica-vectorised duals of the counter-based dynamic adversaries.

Each class here is the array twin of one family in
:mod:`repro.adversaries.dynamic`: it holds the per-replica 64-bit stream
keys (the very keys the scalar oracles hash under) and recomputes every
draw array-wide with :func:`repro.engine.counter.counter_hash_array`.
Because a counter-based draw is a pure function of ``(key, counter
tuple)``, the duals are bit-identical to the scalar oracles by construction
-- no query-order replay, no ``PerReplicaBatchOracle`` fallback loop.

:func:`counter_batch_dual` is the entry point used by
:func:`repro.adversaries.batch.vectorize_oracles`: given the scalar oracle
of every replica, it returns the vectorised dual when all replicas run the
same family with the same construction parameters (checked via each
family's ``counter_batch_signature``) and differ only in their stream key
-- exactly the shape the scenario builders produce, where replica ``i`` is
the single run seeded ``seed + i``.

The recurrent families keep their recurrences, vectorised over rows: the
rotating partition chains each epoch's assignment on the previous epoch's,
and the Gilbert-Elliott link states advance round by round.  Both advance
monotonically (engines query rounds in nondecreasing order) and, mirroring
the scalar memos, raise :class:`LookupError` on a query behind the frontier
rather than silently replaying history.

The three families that draw ``(R, n, n)`` link coins (bursty loss, the
coordinator's background, the kernel oracle) compare the ``uint64`` hash
against an integer :func:`~repro.engine.counter.coin_threshold` -- no
uniform is materialised -- and draw only the rows of *active* replicas: a
finished replica's oracle is not queried, exactly like a finished scalar
run.  The ``(R, n)`` draws of the other two are too small for that to pay
and stay whole.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..batch.arrays import pack_bools
from ..engine.counter import (
    DrawScratch,
    coin_threshold,
    coins_below,
    coins_not_below,
    counter_hash_array,
    units_of_counters,
)
from ..rounds.bitmask import WORD_BITS, word_count
from .classic import CounterKernelOracle
from .dynamic import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
)


class _CounterDualBase:
    """Shared scaffolding: per-row keys, full/self word constants, draw scratch.

    The ``(R, n, n)`` link-coin draws of a round all run in one lazily built
    scratch set -- a :class:`~repro.engine.counter.DrawScratch` for the
    hash, one bool matrix for the threshold comparison that follows --
    which never leaves the dual: whatever ``round_masks`` returns or
    memoises is a fresh array or a constant.
    """

    def __init__(self, oracles: Sequence[Any]) -> None:
        first = oracles[0]
        self.n = first.n
        self.replicas = len(oracles)
        # The per-replica stream keys -- the same derive_seed(seed_i, name)
        # values the scalar oracles hash under (friend access within the
        # adversaries package).
        self.keys = np.array([o._ctr.key for o in oracles], dtype=np.uint64)
        self._words = word_count(self.n)
        n, W = self.n, self._words
        self._arange = np.arange(n, dtype=np.uint64)
        # (n, W) uint64 with exactly the receiver's own bit set per row.
        self_bits = np.zeros((n, W), dtype=np.uint64)
        self_bits[np.arange(n), np.arange(n) // WORD_BITS] = np.uint64(1) << (
            self._arange % np.uint64(WORD_BITS)
        )
        self._self_bits = self_bits
        # (n, W) full-mask rows (every process heard).
        eye = np.ones((1, n), dtype=bool)
        self._full_words = np.broadcast_to(pack_bools(eye, n), (n, W))
        self._scratch: Optional[Tuple[DrawScratch, Any]] = None

    def _link_scratch(self) -> Tuple[DrawScratch, Any]:
        """The ``(R, n, n)`` draw scratch and its bool companion."""
        if self._scratch is None:
            shape = (self.replicas, self.n, self.n)
            self._scratch = (
                DrawScratch(shape),
                np.empty(shape, dtype=bool),
            )
        return self._scratch

    def _live(self, active: Any) -> Tuple[Optional[Any], Any, DrawScratch, Any]:
        """``(rows, keys, draw, coins)`` of the replicas to draw this round.

        All active: *rows* is None and the rest is the whole batch.
        Otherwise *rows* are the active replica indices, *keys* theirs, and
        *draw* / *coins* the leading ``len(rows)`` rows of the link scratch.
        """
        draw, coins = self._link_scratch()
        if active.all():
            return None, self.keys, draw, coins
        rows = np.flatnonzero(active)
        return rows, self.keys[rows], draw.leading(len(rows)), coins[: len(rows)]

    def _spread(self, rows: Optional[Any], words: Any) -> Any:
        """The ``(R, n, W)`` result of a round drawn for *rows* (see :meth:`_live`).

        *words* itself when every replica was drawn; otherwise a fresh array
        with *words* in the drawn rows and zeros (ignored) in the others.
        """
        if rows is None:
            return words
        spread = np.zeros((self.replicas, self.n, self._words), dtype=np.uint64)
        spread[rows] = words
        return spread

    def _full_rows(self) -> Any:
        """The all-heard ``(R, n, W)`` array (stabilised / healed rounds)."""
        return np.broadcast_to(self._full_words, (self.replicas, self.n, self._words))


def _select(mask: Any, if_true: Any, if_false: Any, out: Any) -> None:
    """``out = where(mask, if_true, if_false)`` on bool arrays, no temporary.

    Branch-free (``f ^ (mask & (t ^ f))``) and destructive: *if_true* is
    overwritten on the way.  *out* may be *mask* or *if_true*.
    """
    np.bitwise_xor(if_true, if_false, out=if_true)
    np.bitwise_and(if_true, mask, out=if_true)
    np.bitwise_xor(if_true, if_false, out=out)


class MobileOmissionBatchDual(_CounterDualBase):
    """Array twin of :class:`~repro.adversaries.dynamic.MobileOmissionOracle`.

    The scalar oracle silences the *faults* processes with the smallest
    ``(hash(round, q), q)``; the dual sorts the same ``(R, n)`` hash array
    with a stable argsort (ties break toward lower ``q``, matching the
    scalar tuple order) and packs the complement.
    """

    def __init__(self, oracles: Sequence[MobileOmissionOracle]) -> None:
        super().__init__(oracles)
        first = oracles[0]
        self.faults = first.faults
        self.stable_from = first.stable_from

    def round_masks(self, round: int, active: Any) -> Any:
        if (
            self.stable_from is not None and round >= self.stable_from
        ) or self.faults == 0:
            return self._full_rows()
        hashes = counter_hash_array(self.keys[:, None], [np.uint64(round), self._arange])
        order = np.argsort(hashes, axis=1, kind="stable")
        silenced = np.zeros((self.replicas, self.n), dtype=bool)
        np.put_along_axis(silenced, order[:, : self.faults], True, axis=1)
        base = self._full_words[0] & ~pack_bools(silenced, self.n)
        return base[:, None, :] | self._self_bits[None, :, :]


class RotatingPartitionBatchDual(_CounterDualBase):
    """Array twin of :class:`~repro.adversaries.dynamic.RotatingPartitionOracle`.

    Keeps the per-row block assignment ``(R, n)`` and chains each epoch on
    the previous one exactly like the scalar recurrence; the per-epoch mask
    array is memoised for the rounds of the current epoch only.
    """

    def __init__(self, oracles: Sequence[RotatingPartitionOracle]) -> None:
        super().__init__(oracles)
        first = oracles[0]
        self.blocks = first.blocks
        self.period = first.period
        self.churn = first.churn
        self.heal_from = first.heal_from
        self._assignment: Optional[Any] = None
        self._next_epoch = 0
        self._epoch: Optional[int] = None
        self._epoch_words: Optional[Any] = None

    def _advance_to(self, epoch: int) -> None:
        while self._next_epoch <= epoch:
            e = self._next_epoch
            block_draw = counter_hash_array(
                self.keys[:, None],
                [np.uint64(1), np.uint64(e), self._arange],
            ) % np.uint64(self.blocks)
            if self._assignment is None:
                assignment = block_draw
            else:
                churn_u = units_of_counters(
                    self.keys[:, None],
                    [np.uint64(0), np.uint64(e), self._arange],
                )
                assignment = np.where(
                    churn_u < self.churn, block_draw, self._assignment
                )
            self._assignment = assignment
            self._next_epoch += 1
        if self._epoch != epoch:
            same_block = self._assignment[:, :, None] == self._assignment[:, None, :]
            self._epoch_words = pack_bools(same_block, self.n)
            self._epoch = epoch

    def round_masks(self, round: int, active: Any) -> Any:
        if self.heal_from is not None and round >= self.heal_from:
            return self._full_rows()
        epoch = (round - 1) // self.period
        if epoch < self._next_epoch - 1:
            raise LookupError(
                f"partition epoch {epoch} is behind the batch frontier "
                f"({self._next_epoch - 1}); the assignment recurrence only "
                "advances forward"
            )
        self._advance_to(epoch)
        return self._epoch_words


class BurstyLossBatchDual(_CounterDualBase):
    """Array twin of :class:`~repro.adversaries.dynamic.BurstyLossOracle`.

    The ``(R, n, n)`` link-state matrix advances one round at a time (the
    Gilbert-Elliott chain is a recurrence); state and loss coins are the
    scalar oracle's counter draws ``(0, r, p, q)`` and ``(1, r, p, q)``
    computed array-wide.  The scalar path skips the loss coin when the loss
    probability is zero; the dual always computes it, which is equivalent
    because a uniform in ``[0, 1)`` is never below zero and counter draws
    have no cursor to shift.

    Only active replicas advance, so a replica's link states freeze at the
    round it goes inactive; one that is marked active again later is an
    error (:class:`LookupError`), not a draw from stale state.
    """

    def __init__(self, oracles: Sequence[BurstyLossOracle]) -> None:
        super().__init__(oracles)
        first = oracles[0]
        self.stable_from = first.stable_from
        self._burst = coin_threshold(first.p_burst)
        self._recover = coin_threshold(first.p_recover)
        self._loss_burst = coin_threshold(first.loss_burst)
        self._loss_good = coin_threshold(first.loss_good)
        self._bursty = np.zeros((self.replicas, self.n, self.n), dtype=bool)
        # The second comparison of each two-threshold select (see _select).
        self._alt_coins = np.empty_like(self._bursty)
        # Per replica, the first round it was seen inactive (0: never).
        self._retired_at = np.zeros(self.replicas, dtype=np.int64)
        self._computed_round = 0
        self._round_words: Optional[Any] = None
        eye = np.eye(self.n, dtype=bool)
        self._eye = eye[None, :, :]

    def _advance_to(self, round: int, active: Any) -> None:
        p_axis = self._arange[:, None]
        q_axis = self._arange[None, :]
        rows, keys, draw, coins = self._live(active)
        keys = keys[:, None, None]
        alt = self._alt_coins[: len(coins)]
        bursty = self._bursty if rows is None else self._bursty[rows]
        while self._computed_round < round:
            self._computed_round += 1
            r = np.uint64(self._computed_round)
            state = counter_hash_array(keys, [np.uint64(0), r, p_axis, q_axis], out=draw)
            coins_not_below(state, self._recover, out=coins)
            coins_below(state, self._burst, out=alt)
            _select(bursty, coins, alt, out=bursty)
            loss = counter_hash_array(keys, [np.uint64(1), r, p_axis, q_axis], out=draw)
            coins_not_below(loss, self._loss_burst, out=coins)
            coins_not_below(loss, self._loss_good, out=alt)
            _select(bursty, coins, alt, out=coins)
        coins |= self._eye
        if rows is not None:
            self._bursty[rows] = bursty
            self._retired_at[~active & (self._retired_at == 0)] = round
        self._round_words = self._spread(rows, pack_bools(coins, self.n))

    def round_masks(self, round: int, active: Any) -> Any:
        if self.stable_from is not None and round >= self.stable_from:
            return self._full_rows()
        if round < self._computed_round:
            raise LookupError(
                f"bursty-loss round {round} is behind the batch frontier "
                f"({self._computed_round}); link states only advance forward"
            )
        resumed = active & (self._retired_at > 0)
        if resumed.any():
            replica = int(resumed.argmax())
            raise LookupError(
                f"bursty-loss replica {replica} is active in round {round} but "
                f"retired in round {int(self._retired_at[replica])}; its link "
                "states stopped advancing there"
            )
        if round > self._computed_round:
            self._advance_to(round, active)
        return self._round_words


class EventuallyStableCoordinatorBatchDual(_CounterDualBase):
    """Array twin of :class:`~repro.adversaries.dynamic.EventuallyStableCoordinatorOracle`.

    Stateless per round: the pretender draw ``(0, round)``, the flakiness
    coins ``(1, round, p)`` and the background coins ``(2, round, p, q)``
    are all recomputed array-wide.  The write order matches the scalar
    oracle: background mask, then the pretender bit is forced to the
    flakiness outcome, then the self bit is set on top.
    """

    def __init__(
        self, oracles: Sequence[EventuallyStableCoordinatorOracle]
    ) -> None:
        super().__init__(oracles)
        first = oracles[0]
        self.stable_from = first.stable_from
        self.flaky_probability = first.flaky_probability
        self._background = coin_threshold(first.background_probability)

    def round_masks(self, round: int, active: Any) -> Any:
        if round >= self.stable_from:
            return self._full_rows()
        r = np.uint64(round)
        n = self.n
        rows, keys, draw, heard = self._live(active)
        pretender = counter_hash_array(keys, [np.uint64(0), r]) % np.uint64(n)
        background = counter_hash_array(
            keys[:, None, None],
            [np.uint64(2), r, self._arange[:, None], self._arange[None, :]],
            out=draw,
        )
        coins_below(background, self._background, out=heard)
        flaky_ok = (
            units_of_counters(keys[:, None], [np.uint64(1), r, self._arange])
            >= self.flaky_probability
        )
        idx = np.broadcast_to(
            pretender.astype(np.int64)[:, None, None], (len(keys), n, 1)
        )
        np.put_along_axis(heard, idx, flaky_ok[:, :, None], axis=2)
        diag = np.arange(n)
        heard[:, diag, diag] = True
        return self._spread(rows, pack_bools(heard, n))


#: the kernel oracle's extras / outsider coins are ``below(0.5, ...)``.
_FAIR_COIN = coin_threshold(0.5)


class CounterKernelBatchDual(_CounterDualBase):
    """Array twin of :class:`~repro.adversaries.classic.CounterKernelOracle`.

    Stateless per round: the member-extras coins ``(0, r, p, q)`` and the
    outsider coins ``(1, r, p, q)`` are recomputed array-wide; member rows
    are ``pi0 | extras`` (extras restricted to outsiders), outsider rows an
    arbitrary subset with the self bit forced, composed per receiver row.
    """

    def __init__(self, oracles: Sequence[CounterKernelOracle]) -> None:
        super().__init__(oracles)
        first = oracles[0]
        self.pi0 = first.pi0
        member = np.zeros(self.n, dtype=bool)
        for p in first.pi0:
            member[p] = True
        self._member = member
        self._outsider = ~member
        self._pi0_words = pack_bools(member[None, :], self.n)[0]

    def round_masks(self, round: int, active: Any) -> Any:
        r = np.uint64(round)
        rows, keys, draw, coins = self._live(active)
        keys = keys[:, None, None]
        p_axis = self._arange[:, None]
        q_axis = self._arange[None, :]
        extras = counter_hash_array(keys, [np.uint64(0), r, p_axis, q_axis], out=draw)
        coins_below(extras, _FAIR_COIN, out=coins)
        coins &= self._outsider[None, None, :]
        member_words = pack_bools(coins, self.n)
        member_words |= self._pi0_words[None, None, :]
        outsider = counter_hash_array(keys, [np.uint64(1), r, p_axis, q_axis], out=draw)
        coins_below(outsider, _FAIR_COIN, out=coins)
        outsider_words = pack_bools(coins, self.n)
        outsider_words |= self._self_bits[None, :, :]
        return self._spread(
            rows,
            np.where(self._member[None, :, None], member_words, outsider_words),
        )


_DUALS = {
    CounterKernelOracle: CounterKernelBatchDual,
    MobileOmissionOracle: MobileOmissionBatchDual,
    RotatingPartitionOracle: RotatingPartitionBatchDual,
    BurstyLossOracle: BurstyLossBatchDual,
    EventuallyStableCoordinatorOracle: EventuallyStableCoordinatorBatchDual,
}


def counter_batch_dual(oracles: Sequence[Any], replicas: int) -> Optional[Any]:
    """The vectorised dual of per-replica counter-based oracles, or None.

    Applicable when every replica's oracle is the same dynamic family with
    the same construction parameters (``counter_batch_signature``), so that
    the replicas differ only in their stream keys -- the shape produced by
    seeding replica ``i`` as the single run ``seed + i``.  Returns None for
    any other oracle (the caller falls through to its other strategies).
    """
    first = oracles[0]
    dual_cls = _DUALS.get(type(first))
    if dual_cls is None:
        return None
    signature = first.counter_batch_signature()
    for oracle in oracles[1:]:
        if type(oracle) is not type(first):
            return None
        if oracle.counter_batch_signature() != signature:
            return None
    return dual_cls(list(oracles))


__all__ = [
    "CounterKernelBatchDual",
    "MobileOmissionBatchDual",
    "RotatingPartitionBatchDual",
    "BurstyLossBatchDual",
    "EventuallyStableCoordinatorBatchDual",
    "counter_batch_dual",
]
