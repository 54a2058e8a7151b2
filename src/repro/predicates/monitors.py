"""Streaming predicate monitoring of one run: the collator and the bank.

Every predicate of Table 1 / Section 4.2 has two forms: its whole-collection
definition in :mod:`repro.predicates.static`, and the array monitor of
:mod:`repro.predicates.batch`, which consumes one round of heard-of masks
at a time and keeps, in O(n) state, exactly the verdict the definition
reaches on the prefix observed so far, plus hold/violation run-lengths of a
per-round good condition.  This module lets the array monitors watch a
single run online, from the round engine's record stream, so sweeps can
measure *when* and *for how long* predicates hold over long runs at
O(window * n) memory without ever materialising the collection:

* :class:`RoundCollator` -- a ring buffer of per-round mask vectors that
  assembles the per-record stream of the round engine (lockstep rounds
  arrive process by process; step-backed rounds arrive out of order and
  with skips) into completed in-order rounds, force-flushing rounds that
  fall out of its window with empty heard-of sets -- the same default the
  recorded collection would report for them;
* :class:`MonitorBank` -- the engine-facing observer: it implements the
  :class:`~repro.rounds.engine.RoundObserver` hook, feeds the collator,
  hands every completed round to a
  :class:`~repro.predicates.batch.BatchMonitorBank` with one replica and
  evaluates the early-stop rule ("stop once a predicate held for k
  consecutive rounds", the rule the batch bank applies per replica).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..batch.arrays import popcount_words, unpack_words, words_array_from_masks
from ..rounds.bitmask import full_mask
from .batch import BatchMonitorBank
from .reports import PredicateReport

#: Rounds the collator keeps pending before force-flushing the oldest one.
#: Step-level runs can skew processes by many rounds (a stalled process may
#: finish round r long after its peers); rounds older than the window are
#: completed with empty heard-of sets, matching the collection default.
DEFAULT_WINDOW = 1024

ProcessId = int
Round = int


def _check_scope(mask: Optional[int], n: int, what: str) -> None:
    """Reject a process-set bitmask naming ids outside ``0 .. n-1``."""
    if mask is not None and (mask < 0 or mask >> n):
        raise ValueError(f"{what} {mask:#b} names process ids outside 0..{n - 1}")


# --------------------------------------------------------------------------- #
# assembling the engine's record stream into in-order rounds
# --------------------------------------------------------------------------- #


class RoundCollator:
    """A ring buffer turning per-record mask updates into completed rounds.

    ``add(process, round, mask)`` returns the rounds that completed as a
    result, in strictly increasing order with no gaps: a round is emitted
    when all *n* processes reported it, or when it falls *window* rounds
    behind the newest round seen (missing processes then count as having
    heard nobody, matching ``HOCollection.ho_mask``'s default).  Records
    for rounds already emitted are counted in :attr:`late_records` and
    otherwise ignored -- widen the window if that matters.  Pending memory
    is bounded by O(window * n) masks.
    """

    __slots__ = (
        "n", "window", "_completion", "_pending", "_seen", "_next", "_max_seen", "late_records"
    )

    def __init__(
        self, n: int, window: int = DEFAULT_WINDOW, completion_mask: Optional[int] = None
    ) -> None:
        if n <= 0:
            raise ValueError(f"number of processes must be positive, got {n}")
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        self.n = n
        self.window = window
        # *completion_mask* narrows "all n processes reported" to a subset:
        # step-level runs under crash-stop have processes that stop
        # reporting forever, and waiting out the window on every round would
        # defer all monitoring to the end of the run (no live early stop).
        # Processes outside the mask still contribute their masks when they
        # report in time; a record arriving *after* the completing subset
        # moved past its round is dropped (and counted in late_records), so
        # the stream may under-report a laggard relative to the recorded
        # collection.  Predicates scoped to the completing subset never read
        # those masks; verdicts of unscoped predicates (P_otr, P_restr_otr)
        # become *anytime* under a narrowed mask -- check late_records == 0
        # before equating them with the whole-collection checker.
        self._completion = full_mask(n) if completion_mask is None else completion_mask
        self._pending: Dict[Round, List[int]] = {}
        self._seen: Dict[Round, int] = {}
        self._next: Round = 1
        self._max_seen: Round = 0
        self.late_records = 0

    def add(self, process: ProcessId, round: Round, mask: int) -> List[Tuple[Round, List[int]]]:
        """Record one (process, round) heard-of mask; return newly completed rounds."""
        if round < self._next:
            self.late_records += 1
            return []
        row = self._pending.get(round)
        if row is None:
            row = [0] * self.n
            self._pending[round] = row
            self._seen[round] = 0
        row[process] = mask
        self._seen[round] |= 1 << process
        if round > self._max_seen:
            self._max_seen = round
        return self._flush()

    def _emit(self, round: Round) -> Tuple[Round, List[int]]:
        masks = self._pending.pop(round, None)
        self._seen.pop(round, None)
        self._next = round + 1
        return round, masks if masks is not None else [0] * self.n

    def _flush(self) -> List[Tuple[Round, List[int]]]:
        out: List[Tuple[Round, List[int]]] = []
        completion = self._completion
        while self._next <= self._max_seen:
            round = self._next
            seen = self._seen.get(round, 0)
            if seen & completion == completion or round <= self._max_seen - self.window:
                out.append(self._emit(round))
            else:
                break
        return out

    def drain(self, last_round: Optional[Round] = None) -> List[Tuple[Round, List[int]]]:
        """Complete every pending round (end of run), in order.

        Pending rounds past *last_round* are left behind: a run cut short
        mid-round has reports for rounds it never completed.
        """
        stop = self._max_seen if last_round is None else min(last_round, self._max_seen)
        return [self._emit(round) for round in range(self._next, stop + 1)]


# --------------------------------------------------------------------------- #
# the engine-facing observer
# --------------------------------------------------------------------------- #


class MonitorBank:
    """Feeds the array monitors of *predicates* from one run's record stream.

    Implements the :class:`~repro.rounds.engine.RoundObserver` hook: attach
    it to a :class:`~repro.rounds.engine.RoundEngine` (or an
    :class:`~repro.core.machine.HOMachine` / predimpl stack builder) via
    ``observers=[bank]`` and read :meth:`reports` when the run is over.
    *predicates* are names or aliases of
    :data:`~repro.predicates.batch.MONITOR_NAMES`, each at most once;
    *pi0_mask* scopes the Pi0-parameterised predicates (default: every
    process).  With *stop_after_held* set, ``stop_requested`` turns true
    (and stays true) once any monitor's good condition held for that many
    consecutive rounds; the engine's owners poll it between rounds.
    *completion_mask* narrows the collator's round-completion quorum for
    step-level runs whose out-of-scope processes stop reporting forever.
    """

    def __init__(
        self,
        n: int,
        predicates: Sequence[str],
        pi0_mask: Optional[int] = None,
        stop_after_held: Optional[int] = None,
        completion_mask: Optional[int] = None,
    ) -> None:
        if stop_after_held is not None and stop_after_held < 1:
            raise ValueError(f"stop_after_held must be at least 1, got {stop_after_held}")
        _check_scope(pi0_mask, n, "Pi0")
        _check_scope(completion_mask, n, "completion scope")
        self.n = n
        self.stop_after_held = stop_after_held
        self._collator = RoundCollator(n, completion_mask=completion_mask)
        self._bank = BatchMonitorBank(n, 1, predicates, pi0_mask=pi0_mask)
        self._active = np.ones(1, dtype=bool)
        self.rounds_observed = 0
        self._stop = False
        self._finalized = False

    # -- RoundObserver protocol ---------------------------------------- #

    def on_record(self, record) -> None:
        """Consume one engine :class:`~repro.rounds.record.RoundRecord`."""
        for round, masks in self._collator.add(record.process, record.round, record.ho_mask):
            self.observe_round(round, masks)

    @property
    def stop_requested(self) -> bool:
        return self._stop

    # -- direct feeding / results -------------------------------------- #

    def observe_round(self, round: Round, masks: Sequence[int], live: bool = True) -> None:
        """Feed one completed round to every monitor (and, *live*, the stop rule).

        Rounds must arrive consecutively from 1 (the collator guarantees
        this); *masks* is the dense per-process heard-of vector of the
        round, with ``0`` for processes that recorded nothing.
        """
        if round != self.rounds_observed + 1:
            raise ValueError(
                f"monitor bank expects round {self.rounds_observed + 1}, got {round} "
                f"(feed rounds consecutively, e.g. via RoundCollator)"
            )
        words = words_array_from_masks(masks, self.n)[None]
        self._bank.observe_round(
            round, words, unpack_words(words, self.n), popcount_words(words), self._active
        )
        self.rounds_observed = round
        if live and self.stop_after_held is not None:
            held = self.stop_after_held
            if any(monitor.current_good[0] >= held for monitor in self._bank.monitors):
                self._stop = True

    @property
    def late_records(self) -> int:
        """Records that arrived for rounds already flushed past the window."""
        return self._collator.late_records

    def finalize(self, last_round: Optional[Round] = None) -> None:
        """Flush rounds still pending in the collator (end of run); idempotent.

        Drained rounds bypass the stop rule: the run is already over,
        and the rule firing on the drained tail would misreport a
        full-horizon run as stopped early.  *last_round* is the last round
        the run executed, when its owner stopped it mid-round: pending
        rounds past it were never run and are not reported.
        """
        if self._finalized:
            return
        self._finalized = True
        for round, masks in self._collator.drain(last_round):
            self.observe_round(round, masks, live=False)

    def reports(self) -> Dict[str, PredicateReport]:
        """Finalize and return one report per predicate, keyed by canonical name."""
        self.finalize()
        return self._bank.reports_of(0)

    def reports_json(self) -> Dict[str, Dict]:
        """The reports in their JSON form (what sweep wire records carry)."""
        self.finalize()
        return self._bank.reports_json_of(0)


__all__ = [
    "DEFAULT_WINDOW",
    "RoundCollator",
    "MonitorBank",
]
