"""Replica-vectorised predicate monitors: the one streaming form of each predicate.

Every predicate of Table 1 / Section 4.2 has two forms: its whole-collection
definition in :mod:`repro.predicates.static`, and the monitor here.  A
:class:`BatchMonitorBank` consumes one lockstep round of
``(R, n, ceil(n/64))`` uint64 heard-of mask arrays and maintains, per
replica, in O(n) state (plus, for ``P_restr_otr``, its open-candidate
table), the verdict the whole-collection checker would reach on the prefix
of rounds observed so far, together with the run-length statistics of a
per-round *good condition*.  The heard-of collection is never materialised
and nothing is re-scanned.  The batch engine feeds the bank every replica
of a cell at once; :class:`~repro.predicates.monitors.MonitorBank` feeds it
one run's collated rounds at R = 1.  A round is one pass over a handful of
``(R, n, W)`` and ``(M, R)`` arrays:

* the bank runs the two Pi0 round tests once -- *space uniform* (every Pi0
  member heard exactly Pi0) and *kernel* (every Pi0 member heard all of
  Pi0) -- and hands both to the M monitors as a :class:`RoundView`;
* each monitor turns the view into its ``(R,)`` good vector and advances its
  verdict state.  ``P_restr_otr``'s candidate scan compares every row with
  one row: a candidate Pi0 is the row of each of its more than
  ``2n/3 > n/2`` members, so at most one exists per round and it is the
  per-word median row (see :class:`BatchPRestrOtrMonitor`);
* the bank updates the run-length statistics (rounds observed, good rounds,
  streaks, first good and first hold rounds) of all M monitors at once, as
  one ``(8, M, R)`` int32 array under the per-replica *active* mask, so
  replicas that stop early simply freeze, just like a finished run.
  Each monitor's ``rounds_observed``, ``good_rounds``, ... are row views of
  that array.

``P_restr_otr`` is the one monitor whose verdict state (the open-candidate
table) is per-replica and sparse; it too lives in arrays -- a
``(R, C, W)`` candidate table, a ``(R, C, n)`` pending table and a ``(R,)``
count -- so a round is one masked superset pass over the rows that have
open candidates plus one append for the rows that open a new one, with no
Python loop over replicas.

Equivalence with the whole-collection checkers is pinned by generated
tests: for every predicate, every replica's
:class:`~repro.predicates.reports.PredicateReport` must equal the report
folded from the static definitions -- the checker on every round prefix for
the verdict and first hold round, the checker's one-round condition for
the good rounds and their runs.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..batch.arrays import pack_bools
from ..rounds.bitmask import iter_bits, mask_to_words, word_count
from .reports import PredicateReport
from .static import otr_threshold

#: Canonical monitorable predicate names, as accepted by
#: :class:`BatchMonitorBank` and the ``--predicates`` CLI flag.
MONITOR_NAMES = ("p_otr", "p_restr_otr", "p_su", "p_k", "p_2otr", "p_1/1otr")

_ALIASES = {"p_11otr": "p_1/1otr", "p_1_1otr": "p_1/1otr", "p1/1otr": "p_1/1otr"}


def canonical_predicate_name(name: str) -> str:
    """Normalise *name* to its canonical form; raises on unknown predicates."""
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in MONITOR_NAMES:
        raise ValueError(
            f"unknown predicate {name!r}; known: {', '.join(MONITOR_NAMES)}"
        )
    return key


def canonical_predicate_names(names: Sequence[str]) -> Tuple[str, ...]:
    """Normalise every name of *names*; raises on unknown or repeated predicates.

    Repeats are judged after aliases resolve (``p_11otr`` repeats
    ``p_1/1otr``): a bank keys its reports by canonical name, so a repeated
    predicate would get a second statistics row that no report shows.
    """
    keys = tuple(canonical_predicate_name(name) for name in names)
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(
                f"predicate {key!r} is named more than once in {', '.join(names)}"
            )
    return keys


class RoundView(NamedTuple):
    """One lockstep round as every monitor of a bank sees it."""

    words: Any    # (R, n, W) uint64 heard-of rows
    heard: Any    # (R, n, n) bool, the same rows unpacked
    popc: Any     # (R, n) heard-of set sizes
    su: Any       # (R,) bool: every Pi0 member heard exactly Pi0
    kernel: Any   # (R,) bool: every Pi0 member heard all of Pi0


class BatchPredicateMonitor:
    """One predicate over R replicas: its round test and its verdict state.

    Subclasses implement ``_observe`` (advance the verdict state on one
    :class:`RoundView`, return the round's ``(R,)`` good vector) and
    ``_verdict`` (an ``(R,)`` bool array).  The per-replica statistics that
    feed :class:`~repro.predicates.reports.PredicateReport` are the rows of
    *stats*, the monitor's ``(8, R)`` block of its bank's array; the bank
    updates them, frozen wherever the replica is inactive.
    """

    name = "predicate"

    def __init__(self, n: int, replicas: int, stats: Any) -> None:
        self.n = n
        self.replicas = replicas
        self.words = word_count(n)
        # first_good and first_hold read 0 while not yet.
        (self.rounds_observed, self.good_rounds, self.first_good, self.longest_good,
         self.longest_bad, self.current_good, self.current_bad, self.first_hold) = stats

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        raise NotImplementedError

    def _verdict(self) -> Any:
        raise NotImplementedError

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


class BatchPSuMonitor(BatchPredicateMonitor):
    """``P_su(Pi0, 1, r)`` over the observed prefix (space uniformity).

    Good condition: the round is space uniform for Pi0 (every ``p in Pi0``
    has ``HO(p, r) = Pi0``).  The verdict is the "uniform throughout the run
    so far" reading: every observed round was good, and at least one round
    was observed (vacuously true for an empty Pi0).
    """

    name = "p_su"

    def __init__(self, n: int, replicas: int, stats: Any, pi0_mask: int) -> None:
        super().__init__(n, replicas, stats)
        self.pi0_mask = pi0_mask
        self._ok = np.ones(replicas, dtype=bool)

    def _good(self, view: RoundView) -> Any:
        return view.su

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        good = self._good(view)
        self._ok &= good | ~active
        return good

    def _verdict(self) -> Any:
        observed = self.rounds_observed >= 1
        if self.pi0_mask == 0:
            return observed
        return observed & self._ok


class BatchPKernelMonitor(BatchPSuMonitor):
    """``P_k(Pi0, 1, r)`` over the observed prefix (kernel rounds).

    Good condition: the round is a *kernel round* for Pi0 (every
    ``p in Pi0`` has ``HO(p, r) >= Pi0``); the verdict is that of
    :class:`BatchPSuMonitor`.
    """

    name = "p_k"

    def _good(self, view: RoundView) -> Any:
        return view.kernel


class BatchPOtrMonitor(BatchPredicateMonitor):
    """``P_otr`` (Table 1, eq. 1).

    Good condition: a *uniform quorum round* -- every process has the same
    heard-of set and its cardinality exceeds ``2n/3``.  The verdict uses the
    earliest such round as the witness ``r0`` (any witness implies the
    earliest one works, since the second clause only needs rounds strictly
    after ``r0``) and then waits for every process to hear ``> 2n/3``
    senders in some later round.
    """

    name = "p_otr"

    def __init__(self, n: int, replicas: int, stats: Any) -> None:
        super().__init__(n, replicas, stats)
        self.threshold = otr_threshold(n)
        self._u_min = np.zeros(replicas, dtype=np.int32)  # 0 = unset
        self._later = np.zeros((replicas, self.words), dtype=np.uint64)
        self._full_words = np.array(mask_to_words((1 << n) - 1, n), dtype=np.uint64)

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        words, popc = view.words, view.popc
        good = (words == words[:, :1, :]).all(axis=(1, 2)) & (popc[:, 0] >= self.threshold)
        done = (self._later == self._full_words).all(axis=1)
        witnessed = self._u_min > 0
        grow = active & witnessed & ~done
        if grow.any():
            big = pack_bools(popc >= self.threshold, self.n)
            self._later = np.where(grow[:, None], self._later | big, self._later)
        np.copyto(self._u_min, np.int32(round), where=active & ~witnessed & good)
        return good

    def _verdict(self) -> Any:
        return (self._u_min > 0) & (self._later == self._full_words).all(axis=1)


class BatchP2OtrMonitor(BatchPredicateMonitor):
    """``P_2otr(Pi0)``: a space-uniform round immediately followed by a kernel round.

    Good condition: the round is a kernel round for Pi0 (space-uniform
    rounds are kernel rounds, so this counts every round usable in the
    pattern).  The verdict fires, and stays true, once a kernel round
    directly follows a space-uniform round.
    """

    name = "p_2otr"

    def __init__(self, n: int, replicas: int, stats: Any) -> None:
        super().__init__(n, replicas, stats)
        self._prev_su = np.zeros(replicas, dtype=bool)
        self._satisfied = np.zeros(replicas, dtype=bool)

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        self._satisfied |= active & self._prev_su & view.kernel
        np.copyto(self._prev_su, view.su, where=active)
        return view.kernel

    def _verdict(self) -> Any:
        return self._satisfied


class BatchP11OtrMonitor(BatchP2OtrMonitor):
    """``P_1/1otr(Pi0)``: a space-uniform round, then (eventually) a kernel round.

    Same good condition as :class:`BatchP2OtrMonitor`; the verdict fires
    once any kernel round follows any strictly earlier space-uniform round
    (the earliest space-uniform round subsumes all later witnesses).
    """

    name = "p_1/1otr"

    def __init__(self, n: int, replicas: int, stats: Any) -> None:
        super().__init__(n, replicas, stats)
        self._su_seen = np.zeros(replicas, dtype=bool)

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        self._satisfied |= active & self._su_seen & view.kernel
        self._su_seen |= active & view.su
        return view.kernel


class BatchPRestrOtrMonitor(BatchPredicateMonitor):
    """``P_restr_otr`` (Table 1, eq. 2).

    Good condition: the round hosts a *candidate* Pi0 -- a set of more than
    ``2n/3`` processes that all heard exactly each other.  The verdict holds
    once every member of some candidate heard all of it in a strictly later
    round.

    The candidate scan (is there a > 2n/3 set whose members all heard
    exactly each other?) compares each row with one row.  A candidate Pi0
    is the row of each of its more than ``2n/3`` members; two candidates
    would need two disjoint such sets, so at most one exists per round.
    Its more than ``n/2`` members hold every one of its W words, so sorting
    each word along the process axis puts the candidate's word at position
    ``n // 2``: the candidate, if any, is that median row.  The round has
    one iff some process holds the median row, the row has at least
    ``otr_threshold(n)`` members and each member holds it; the processes
    passing the scan are exactly those members (a process holding the row
    without hearing itself does not pass).

    The open-candidate table holds, per replica, the candidates seen so
    far and the members of each still lacking a later round with
    ``HO >= Pi0``: row r's first ``_count[r]`` slots of ``_cand[r]`` hold
    its candidates' words in the order they opened, ``_pending[r, c]`` the
    members still pending; unused slots are all-zero.  The slot axis doubles
    when a row fills it and never evicts: a candidate dropped today could
    have completed tomorrow, which would change the verdict.  An adversary
    minting a fresh never-completed candidate every round therefore grows
    the table by one slot per round.
    """

    name = "p_restr_otr"

    #: initial width of the slot axis (at most one candidate opens per round).
    INITIAL_SLOTS = 4

    def __init__(self, n: int, replicas: int, stats: Any) -> None:
        super().__init__(n, replicas, stats)
        self.threshold = otr_threshold(n)
        self._satisfied = np.zeros(replicas, dtype=bool)
        self._cand = np.zeros((replicas, self.INITIAL_SLOTS, self.words), dtype=np.uint64)
        self._pending = np.zeros((replicas, self.INITIAL_SLOTS, n), dtype=bool)
        self._count = np.zeros(replicas, dtype=np.intp)
        self._replica = np.arange(replicas)

    def _scan(self, words: Any, heard: Any, popc: Any) -> Any:
        """(R, n) bool: the processes of each replica that pass the candidate scan."""
        row = np.sort(words, axis=1)[:, self.n // 2]                  # (R, W)
        same = (words == row[:, None, :]).all(axis=2)                 # (R, n)
        owner = same.argmax(axis=1)                   # the median row's first holder
        members = heard[self._replica, owner]                         # (R, n)
        found = (
            same[self._replica, owner]
            & (popc[self._replica, owner] >= self.threshold)
            & (same | ~members).all(axis=1)
        )
        return members & found[:, None]

    def _observe(self, round: int, view: RoundView, active: Any) -> Any:
        words, heard = view.words, view.heard
        ok_p = self._scan(words, heard, view.popc)
        good = ok_p.any(axis=1)
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
            return good
        p_star = ok_p[rows].argmax(axis=1)
        slot = self._count[rows]
        if int(slot.max()) == self._cand.shape[1]:
            self._cand = np.concatenate([self._cand, np.zeros_like(self._cand)], axis=1)
            self._pending = np.concatenate(
                [self._pending, np.zeros_like(self._pending)], axis=1
            )
        self._cand[rows, slot] = words[rows, p_star]
        self._pending[rows, slot] = heard[rows, p_star]
        self._count[rows] = slot + 1
        return good

    def _verdict(self) -> Any:
        return self._satisfied


# --------------------------------------------------------------------------- #
# the bank
# --------------------------------------------------------------------------- #


class BatchMonitorBank:
    """Vectorised monitors for R replicas, fed one lockstep round at a time.

    Rounds must arrive complete and in order (the batch engine's lockstep
    rounds do; :class:`repro.predicates.MonitorBank` collates a run's
    record stream into such rounds for R = 1).  *predicates* are names or
    aliases of :data:`MONITOR_NAMES`, each at most once.
    ``stop_after_held`` is the early-stop rule: a replica requests a stop
    once any of its monitors' good condition held for that many
    consecutive rounds; requests are sticky and per replica.
    """

    def __init__(
        self,
        n: int,
        replicas: int,
        predicates: Sequence[str],
        pi0_mask: Optional[int] = None,
        stop_after_held: Optional[int] = None,
    ) -> None:
        if not predicates:
            raise ValueError("at least one predicate name is required")
        predicates = canonical_predicate_names(predicates)
        if stop_after_held is not None and stop_after_held < 1:
            raise ValueError(f"stop_after_held must be at least 1, got {stop_after_held}")
        self.n = n
        self.replicas = replicas
        self.stop_after_held = stop_after_held
        full = (1 << n) - 1
        pi0 = full if pi0_mask is None else pi0_mask
        # Pi0 = everyone tests the words themselves, not a fancy-index copy.
        self._pi0_idx = None if pi0 == full else list(iter_bits(pi0))
        self._pi0_words = np.array(mask_to_words(pi0, n), dtype=np.uint64)
        #: rounds observed, good rounds, first good, longest good, longest
        #: bad, current good, current bad, first hold -- per monitor, replica.
        self._stats = np.zeros((8, len(predicates), replicas), dtype=np.int32)
        self.monitors = [
            build_batch_monitor(name, n, replicas, self._stats[:, i], pi0)
            for i, name in enumerate(predicates)
        ]
        self._stop = np.zeros(replicas, dtype=bool)

    def observe_round(self, round: int, words: Any, heard: Any, popc: Any, active: Any) -> None:
        rows = words if self._pi0_idx is None else words[:, self._pi0_idx, :]
        pi0 = self._pi0_words
        su = (rows == pi0).all(axis=(1, 2))
        kernel = ((rows & pi0) == pi0).all(axis=(1, 2))
        view = RoundView(words, heard, popc, su, kernel)
        good = np.array([monitor._observe(round, view, active) for monitor in self.monitors])
        (observed, good_rounds, first_good, longest_good, longest_bad,
         current_good, current_bad, first_hold) = self._stats
        counted = good & active
        missed = active & ~good
        at = np.int32(round)
        np.copyto(observed, at, where=active)
        good_rounds += counted
        np.copyto(first_good, at, where=counted & (first_good == 0))
        current_good += counted
        np.copyto(current_good, 0, where=missed)
        current_bad += missed
        np.copyto(current_bad, 0, where=counted)
        np.maximum(longest_good, current_good, out=longest_good)
        np.maximum(longest_bad, current_bad, out=longest_bad)
        holds = np.array([monitor._verdict() for monitor in self.monitors])
        np.copyto(first_hold, at, where=active & holds & (first_hold == 0))
        if self.stop_after_held is not None:
            self._stop |= active & (current_good >= self.stop_after_held).any(axis=0)

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
    stats: Any,
    pi0_mask: int,
) -> BatchPredicateMonitor:
    """Build the vectorised monitor for predicate *name* over R replicas.

    Accepts the names (and aliases) of :data:`MONITOR_NAMES`.  *stats* is
    the monitor's ``(8, R)`` int32 block of its bank's statistics; *pi0_mask*
    is the bank's Pi0 as a bitmask (the bank runs the Pi0 round tests
    itself).
    """
    key = canonical_predicate_name(name)
    if key == "p_otr":
        return BatchPOtrMonitor(n, replicas, stats)
    if key == "p_restr_otr":
        return BatchPRestrOtrMonitor(n, replicas, stats)
    if key == "p_su":
        return BatchPSuMonitor(n, replicas, stats, pi0_mask)
    if key == "p_k":
        return BatchPKernelMonitor(n, replicas, stats, pi0_mask)
    if key == "p_2otr":
        return BatchP2OtrMonitor(n, replicas, stats)
    return BatchP11OtrMonitor(n, replicas, stats)


__all__ = [
    "MONITOR_NAMES",
    "canonical_predicate_name",
    "canonical_predicate_names",
    "RoundView",
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
