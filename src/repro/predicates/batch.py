"""Replica-vectorised predicate monitors: the batched dual of the streaming duals.

Every monitor of :mod:`repro.predicates.monitors` exists here a third time,
vectorised across the replica axis: a :class:`BatchMonitorBank` consumes one
lockstep round of ``(R, n, ceil(n/64))`` uint64 heard-of mask arrays and
maintains, per replica, exactly the state the scalar monitor would hold
after the same rounds -- popcounts over word arrays replace per-mask
``bit_count``, row comparisons replace per-process equality, and the
run-length statistics (good rounds, streaks, first-hold rounds) update as
``(R,)`` arrays under the batch's per-replica *active* mask, so replicas
that stop early simply freeze, just like a finished scalar run.

``P_restr_otr`` is the one monitor whose verdict state (the open-candidate
table) is per-replica and sparse; it too lives in arrays -- a
``(R, C, W)`` candidate table, a ``(R, C, n)`` pending table and a ``(R,)``
count -- so a round is one masked superset pass over the rows that have
open candidates plus one append for the rows that open a new one, with no
Python loop over replicas (see :class:`BatchPRestrOtrMonitor`).

Equivalence with the scalar monitors (and therefore, transitively, with the
whole-collection checkers) is pinned by tests: for every predicate, every
replica's :class:`~repro.predicates.reports.PredicateReport` must be equal
to the report of a scalar :class:`~repro.predicates.MonitorBank` fed the
same rounds.

This module requires numpy (the ``fast`` extra); the batch backend never
constructs a bank on the pure-Python fallback path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from .._optional import require_numpy
from ..batch.arrays import pack_bools
from ..rounds.bitmask import iter_bits, mask_to_words, word_count
from .monitors import MONITOR_NAMES, canonical_predicate_name
from .reports import PredicateReport
from .static import otr_threshold


class BatchPredicateMonitor:
    """Shared run-length machinery of one predicate over R replicas.

    Subclasses implement ``_round_good`` (an ``(R,)`` bool array), optionally
    ``_advance`` (verdict state), and ``_verdict`` (an ``(R,)`` bool array);
    the base keeps the per-replica statistics that feed
    :class:`~repro.predicates.reports.PredicateReport`, frozen wherever the
    replica is inactive.
    """

    name = "predicate"

    def __init__(self, n: int, replicas: int) -> None:
        np = require_numpy()
        self.np = np
        self.n = n
        self.replicas = replicas
        self.words = word_count(n)
        zeros = lambda: np.zeros(replicas, dtype=np.int32)  # noqa: E731
        self.rounds_observed = zeros()
        self.good_rounds = zeros()
        self.first_good = zeros()          # 0 = not yet
        self.longest_good = zeros()
        self.longest_bad = zeros()
        self.current_good = zeros()
        self.current_bad = zeros()
        self.first_hold = zeros()          # 0 = not yet
        self.last_good = np.zeros(replicas, dtype=bool)

    # ------------------------------------------------------------------ #
    # streaming entry point
    # ------------------------------------------------------------------ #

    def observe(self, round: int, words: Any, heard: Any, popc: Any, active: Any) -> None:
        np = self.np
        good = self._round_good(words, heard, popc)
        self._advance(round, words, heard, popc, good, active)
        g = good & active
        self.rounds_observed = np.where(active, np.int32(round), self.rounds_observed)
        self.good_rounds += g
        self.first_good = np.where(g & (self.first_good == 0), np.int32(round), self.first_good)
        self.current_good = np.where(active, np.where(good, self.current_good + 1, 0),
                                     self.current_good)
        self.current_bad = np.where(active, np.where(good, 0, self.current_bad + 1),
                                    self.current_bad)
        self.longest_good = np.maximum(self.longest_good, self.current_good)
        self.longest_bad = np.maximum(self.longest_bad, self.current_bad)
        self.last_good = np.where(active, good, self.last_good)
        holds = self._verdict()
        self.first_hold = np.where(
            active & holds & (self.first_hold == 0), np.int32(round), self.first_hold
        )

    # subclass hooks ---------------------------------------------------- #

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        raise NotImplementedError

    def _advance(
        self, round: int, words: Any, heard: Any, popc: Any, good: Any, active: Any
    ) -> None:
        pass

    def _verdict(self) -> Any:
        raise NotImplementedError

    # reports ----------------------------------------------------------- #

    def report_of(self, replica: int) -> PredicateReport:
        holds = bool(self._verdict()[replica])
        return PredicateReport(
            name=self.name,
            rounds_observed=int(self.rounds_observed[replica]),
            good_rounds=int(self.good_rounds[replica]),
            first_good_round=int(self.first_good[replica]) or None,
            longest_good_run=int(self.longest_good[replica]),
            longest_bad_run=int(self.longest_bad[replica]),
            first_hold_round=int(self.first_hold[replica]) or None,
            holds=holds,
        )


def _pi0_state(np: Any, n: int, pi0_mask: Optional[int]) -> Any:
    mask = ((1 << n) - 1) if pi0_mask is None else pi0_mask
    indices = list(iter_bits(mask))
    words = np.array(mask_to_words(mask, n), dtype=np.uint64)
    return mask, indices, words


class BatchPSuMonitor(BatchPredicateMonitor):
    """Vectorised :class:`~repro.predicates.monitors.PSuMonitor` (open window)."""

    name = "p_su"

    def __init__(self, n: int, replicas: int, pi0_mask: Optional[int] = None) -> None:
        super().__init__(n, replicas)
        self.pi0_mask, self._pi0_idx, self._pi0_words = _pi0_state(self.np, n, pi0_mask)
        self._ok = self.np.ones(replicas, dtype=bool)

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        if not self._pi0_idx:
            return self.np.ones(self.replicas, dtype=bool)
        return (words[:, self._pi0_idx, :] == self._pi0_words).all(axis=(1, 2))

    def _advance(self, round, words, heard, popc, good, active) -> None:
        self._ok &= good | ~active

    def _verdict(self) -> Any:
        observed = self.rounds_observed >= 1
        if self.pi0_mask == 0:
            return observed
        return observed & self._ok


class BatchPKernelMonitor(BatchPSuMonitor):
    """Vectorised :class:`~repro.predicates.monitors.PKernelMonitor` (open window)."""

    name = "p_k"

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        if not self._pi0_idx:
            return self.np.ones(self.replicas, dtype=bool)
        rows = words[:, self._pi0_idx, :]
        return ((rows & self._pi0_words) == self._pi0_words).all(axis=(1, 2))


class BatchPOtrMonitor(BatchPredicateMonitor):
    """Vectorised :class:`~repro.predicates.monitors.POtrMonitor`."""

    name = "p_otr"

    def __init__(self, n: int, replicas: int) -> None:
        super().__init__(n, replicas)
        np = self.np
        self.threshold = otr_threshold(n)
        self._u_min = np.zeros(replicas, dtype=np.int32)  # 0 = unset
        self._later = np.zeros((replicas, self.words), dtype=np.uint64)
        self._full_words = np.array(mask_to_words((1 << n) - 1, n), dtype=np.uint64)

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        uniform = (words == words[:, :1, :]).all(axis=(1, 2))
        return uniform & (popc[:, 0] >= self.threshold)

    def _advance(self, round, words, heard, popc, good, active) -> None:
        np = self.np
        done = (self._later == self._full_words).all(axis=1)
        witnessed = self._u_min > 0
        grow = active & witnessed & ~done
        if grow.any():
            big = pack_bools(popc >= self.threshold, self.n)
            self._later = np.where(grow[:, None], self._later | big, self._later)
        self._u_min = np.where(
            active & ~witnessed & good, np.int32(round), self._u_min
        )

    def _verdict(self) -> Any:
        return (self._u_min > 0) & (self._later == self._full_words).all(axis=1)


class BatchP2OtrMonitor(BatchPredicateMonitor):
    """Vectorised :class:`~repro.predicates.monitors.P2OtrMonitor`."""

    name = "p_2otr"

    def __init__(self, n: int, replicas: int, pi0_mask: Optional[int] = None) -> None:
        super().__init__(n, replicas)
        self.pi0_mask, self._pi0_idx, self._pi0_words = _pi0_state(self.np, n, pi0_mask)
        self._prev_su = self.np.zeros(replicas, dtype=bool)
        self._satisfied = self.np.zeros(replicas, dtype=bool)

    def _space_uniform(self, words: Any) -> Any:
        if not self._pi0_idx:
            return self.np.ones(self.replicas, dtype=bool)
        return (words[:, self._pi0_idx, :] == self._pi0_words).all(axis=(1, 2))

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        if not self._pi0_idx:
            return self.np.ones(self.replicas, dtype=bool)
        rows = words[:, self._pi0_idx, :]
        return ((rows & self._pi0_words) == self._pi0_words).all(axis=(1, 2))

    def _advance(self, round, words, heard, popc, good, active) -> None:
        np = self.np
        self._satisfied |= active & self._prev_su & good
        self._prev_su = np.where(active, self._space_uniform(words), self._prev_su)

    def _verdict(self) -> Any:
        return self._satisfied


class BatchP11OtrMonitor(BatchP2OtrMonitor):
    """Vectorised :class:`~repro.predicates.monitors.P11OtrMonitor`."""

    name = "p_1/1otr"

    def __init__(self, n: int, replicas: int, pi0_mask: Optional[int] = None) -> None:
        super().__init__(n, replicas, pi0_mask)
        self._su_seen = self.np.zeros(replicas, dtype=bool)

    def _advance(self, round, words, heard, popc, good, active) -> None:
        self._satisfied |= active & self._su_seen & good
        self._su_seen |= active & self._space_uniform(words)


class BatchPRestrOtrMonitor(BatchPredicateMonitor):
    """Vectorised :class:`~repro.predicates.monitors.PRestrOtrMonitor`.

    The candidate scan (is there a > 2n/3 set whose members all heard
    exactly each other?) runs as array comparisons for all replicas at
    once, and so does the open-candidate table, the scalar monitor's
    ``{Pi0 mask: pending mask}`` dict laid out as arrays: row r's first
    ``_count[r]`` slots of ``_cand[r]`` hold its candidates' words in the
    order they opened, ``_pending[r, c]`` the members still lacking a later
    round with ``HO >= Pi0``; unused slots are all-zero.  The slot axis
    doubles when a row fills it and -- like the scalar dict -- never evicts:
    a candidate dropped today could have completed tomorrow, which would
    change the verdict.
    """

    name = "p_restr_otr"

    #: initial width of the slot axis (at most one candidate opens per round).
    INITIAL_SLOTS = 4

    def __init__(self, n: int, replicas: int) -> None:
        super().__init__(n, replicas)
        np = self.np
        self.threshold = otr_threshold(n)
        self._satisfied = np.zeros(replicas, dtype=bool)
        self._cand = np.zeros((replicas, self.INITIAL_SLOTS, self.words), dtype=np.uint64)
        self._pending = np.zeros((replicas, self.INITIAL_SLOTS, n), dtype=bool)
        self._count = np.zeros(replicas, dtype=np.intp)
        self._diag = np.arange(n)

    def _round_good(self, words: Any, heard: Any, popc: Any) -> Any:
        np = self.np
        rows_equal = (words[:, :, None, :] == words[:, None, :, :]).all(axis=3)
        members_equal = (~heard | rows_equal).all(axis=2)
        hears_self = heard[:, self._diag, self._diag]
        self._ok_p = (popc >= self.threshold) & hears_self & members_equal
        return self._ok_p.any(axis=1)

    def _advance(self, round, words, heard, popc, good, active) -> None:
        np = self.np
        # Clear first: a pending member p of candidate c is done once
        # HO(p) >= c.  Satisfied and inactive rows are frozen.
        rows = np.flatnonzero(active & ~self._satisfied & (self._count > 0))
        if rows.size:
            used = int(self._count[rows].max())
            cand = self._cand[rows, :used, None, :]                  # (k, C, 1, W)
            covers = ((words[rows, None, :, :] & cand) == cand).all(axis=3)
            pending = self._pending[rows, :used] & ~covers           # (k, C, n)
            self._pending[rows, :used] = pending
            is_open = np.arange(used) < self._count[rows, None]
            self._satisfied[rows] = (is_open & ~pending.any(axis=2)).any(axis=1)
        # Then open: the round's candidate is the HO set of the first process
        # passing the scan, pending = its members.  The second clause needs
        # strictly later rounds, so this round does not clear its own
        # candidate.  No "already in the table" test is owed: a recurring
        # candidate has every member hear all of it, so the clear pass above
        # just completed it and the row is no longer open.
        rows = np.flatnonzero(active & ~self._satisfied & good)
        if not rows.size:
            return
        p_star = self._ok_p[rows].argmax(axis=1)
        slot = self._count[rows]
        if int(slot.max()) == self._cand.shape[1]:
            self._cand = np.concatenate([self._cand, np.zeros_like(self._cand)], axis=1)
            self._pending = np.concatenate(
                [self._pending, np.zeros_like(self._pending)], axis=1
            )
        self._cand[rows, slot] = words[rows, p_star]
        self._pending[rows, slot] = heard[rows, p_star]
        self._count[rows] = slot + 1

    def _verdict(self) -> Any:
        return self._satisfied


# --------------------------------------------------------------------------- #
# the bank
# --------------------------------------------------------------------------- #


class BatchMonitorBank:
    """Vectorised monitors for R replicas, fed one lockstep round at a time.

    The batched twin of :class:`repro.predicates.MonitorBank` for the
    lockstep oracle path (rounds arrive complete and in order, so no
    collator is needed).  ``stop_after_held`` is the scalar bank's stop
    rule: a replica requests a stop once any of its monitors' good
    condition held for that many consecutive rounds; requests are sticky
    and per replica.
    """

    def __init__(
        self,
        n: int,
        replicas: int,
        predicates: Sequence[str],
        pi0_mask: Optional[int] = None,
        stop_after_held: Optional[int] = None,
    ) -> None:
        np = require_numpy()
        if not predicates:
            raise ValueError("at least one predicate name is required")
        if stop_after_held is not None and stop_after_held < 1:
            raise ValueError(f"stop_after_held must be at least 1, got {stop_after_held}")
        self.np = np
        self.n = n
        self.replicas = replicas
        self.stop_after_held = stop_after_held
        self.monitors = [
            build_batch_monitor(name, n, replicas, pi0_mask=pi0_mask)
            for name in predicates
        ]
        self._stop = np.zeros(replicas, dtype=bool)

    def observe_round(self, round: int, words: Any, heard: Any, popc: Any, active: Any) -> None:
        for monitor in self.monitors:
            monitor.observe(round, words, heard, popc, active)
        if self.stop_after_held is not None:
            held = self.np.zeros(self.replicas, dtype=bool)
            for monitor in self.monitors:
                held |= monitor.current_good >= self.stop_after_held
            self._stop |= active & held

    @property
    def stop_array(self) -> Any:
        """(R,) bool -- replicas whose stop rule fired (sticky)."""
        return self._stop

    def reports_of(self, replica: int) -> Dict[str, PredicateReport]:
        return {monitor.name: monitor.report_of(replica) for monitor in self.monitors}

    def reports_json_of(self, replica: int) -> Dict[str, Dict[str, Any]]:
        return {
            name: report.to_json_dict() for name, report in self.reports_of(replica).items()
        }


def build_batch_monitor(
    name: str,
    n: int,
    replicas: int,
    pi0_mask: Optional[int] = None,
) -> BatchPredicateMonitor:
    """Build the vectorised monitor for predicate *name* over R replicas.

    Accepts the same names (and aliases) as
    :func:`repro.predicates.build_monitor`; the Pi0-scoped predicates take
    *pi0_mask* as a bitmask (``None`` means the full process set).
    """
    key = canonical_predicate_name(name)
    if key == "p_otr":
        return BatchPOtrMonitor(n, replicas)
    if key == "p_restr_otr":
        return BatchPRestrOtrMonitor(n, replicas)
    if key == "p_su":
        return BatchPSuMonitor(n, replicas, pi0_mask)
    if key == "p_k":
        return BatchPKernelMonitor(n, replicas, pi0_mask)
    if key == "p_2otr":
        return BatchP2OtrMonitor(n, replicas, pi0_mask)
    return BatchP11OtrMonitor(n, replicas, pi0_mask)


__all__ = [
    "MONITOR_NAMES",
    "BatchPredicateMonitor",
    "BatchPOtrMonitor",
    "BatchPRestrOtrMonitor",
    "BatchPSuMonitor",
    "BatchPKernelMonitor",
    "BatchP2OtrMonitor",
    "BatchP11OtrMonitor",
    "BatchMonitorBank",
    "build_batch_monitor",
]
