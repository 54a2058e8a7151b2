"""Streaming communication-predicate monitors (the *online* dual).

Every predicate of Table 1 / Section 4.2 exists here a second time, as a
:class:`PredicateMonitor` that consumes one round of bitmask heard-of sets
at a time and maintains, in O(n) state (plus, for ``P_restr_otr``, one
integer pair per distinct open candidate Pi0 -- at most one new candidate
per round, a handful in practice), exactly the verdict the
whole-collection checker of :mod:`repro.predicates.static` would reach on
the prefix observed so far.  Nothing is ever re-scanned and the heard-of
collection is never materialised, so sweeps can measure *when* and *for how
long* predicates hold over million-round runs at O(window * n) memory --
the monitoring analogue of how disruption-tolerant networks watch
connectivity predicates over live contact windows.

Three pieces cooperate:

* the monitors themselves -- each consumes ``observe(round, masks)`` with
  strictly consecutive rounds (1, 2, 3, ...) and exposes the cumulative
  ``verdict`` plus a per-round *good condition* (a space-uniform round, a
  kernel round, a uniform quorum round) from which hold/violation
  run-lengths are accumulated;
* :class:`RoundCollator` -- a ring buffer of per-round mask vectors that
  assembles the per-record stream of the round engine (lockstep rounds
  arrive process by process; step-backed rounds arrive out of order and
  with skips) into completed in-order rounds, force-flushing rounds that
  fall out of its window with empty heard-of sets -- the same default the
  recorded collection would report for them;
* :class:`MonitorBank` -- the engine-facing observer: it implements the
  :class:`~repro.rounds.engine.RoundObserver` hook, feeds the collator,
  drives the monitors and evaluates the early-stop rule ("stop once a
  predicate held for k consecutive rounds", the rule
  :class:`~repro.predicates.batch.BatchMonitorBank` applies too).

The duality is property-tested: for every monitor, replaying a recorded
collection through :func:`monitor_collection` yields the same verdict as
the whole-collection checker on that collection.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.types import validate_process_subset
from ..rounds.bitmask import bit_count, full_mask, iter_bits, mask_of
from .reports import PredicateReport
from .static import otr_threshold

#: Rounds the collator keeps pending before force-flushing the oldest one.
#: Step-level runs can skew processes by many rounds (a stalled process may
#: finish round r long after its peers); rounds older than the window are
#: completed with empty heard-of sets, matching the collection default.
DEFAULT_WINDOW = 1024

ProcessId = int
Round = int


def _pi0_mask(pi0: Optional[Iterable[ProcessId]], n: int) -> int:
    """The bitmask of *pi0* (default: the full process set), ids validated."""
    if pi0 is None:
        return full_mask(n)
    return mask_of(validate_process_subset(pi0, n))


class PredicateMonitor(abc.ABC):
    """One predicate, evaluated online over a stream of per-round mask vectors.

    ``observe(round, masks)`` must be called with strictly consecutive
    rounds starting at 1 (the :class:`RoundCollator` guarantees this);
    *masks* is the dense per-process heard-of vector of that round, with
    ``0`` for processes that recorded nothing -- the same default the
    whole-collection checkers see through ``HOCollection.ho_mask``.

    Subclasses define the cumulative :attr:`verdict` (equal to the
    whole-collection checker on the observed prefix) and the per-round
    *good condition* feeding the run-length statistics of the report.
    """

    name: str = "predicate"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"number of processes must be positive, got {n}")
        self.n = n
        self._full = full_mask(n)
        self._rounds_observed = 0
        self._good_rounds = 0
        self._first_good_round: Optional[Round] = None
        self._longest_good_run = 0
        self._longest_bad_run = 0
        self._current_good_run = 0
        self._current_bad_run = 0
        self._first_hold_round: Optional[Round] = None

    # ------------------------------------------------------------------ #
    # streaming entry point
    # ------------------------------------------------------------------ #

    def observe(self, round: Round, masks: Sequence[int]) -> None:
        """Consume one round's heard-of vector (rounds must arrive in order)."""
        if round != self._rounds_observed + 1:
            raise ValueError(
                f"monitor {self.name!r} expects round {self._rounds_observed + 1}, "
                f"got {round} (feed rounds consecutively, e.g. via RoundCollator)"
            )
        good = self._round_good(masks)
        self._advance(round, masks, good)
        self._rounds_observed = round
        if good:
            self._good_rounds += 1
            if self._first_good_round is None:
                self._first_good_round = round
            self._current_good_run += 1
            self._current_bad_run = 0
            self._longest_good_run = max(self._longest_good_run, self._current_good_run)
        else:
            self._current_bad_run += 1
            self._current_good_run = 0
            self._longest_bad_run = max(self._longest_bad_run, self._current_bad_run)
        if self._first_hold_round is None and self.verdict:
            self._first_hold_round = round

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _round_good(self, masks: Sequence[int]) -> bool:
        """The per-round good condition (documented per subclass)."""

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        """Update the cumulative verdict state (default: nothing beyond *good*)."""

    @property
    @abc.abstractmethod
    def verdict(self) -> bool:
        """Whether the predicate holds on the prefix of rounds observed so far."""

    # ------------------------------------------------------------------ #
    # introspection / report
    # ------------------------------------------------------------------ #

    @property
    def rounds_observed(self) -> int:
        return self._rounds_observed

    @property
    def current_good_run(self) -> int:
        """Length of the good-round run ending at the last observed round."""
        return self._current_good_run

    def report(self) -> PredicateReport:
        """The compact summary of everything observed so far."""
        return PredicateReport(
            name=self.name,
            rounds_observed=self._rounds_observed,
            good_rounds=self._good_rounds,
            first_good_round=self._first_good_round,
            longest_good_run=self._longest_good_run,
            longest_bad_run=self._longest_bad_run,
            first_hold_round=self._first_hold_round,
            holds=self.verdict,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self.n}, rounds={self._rounds_observed})"


class POtrMonitor(PredicateMonitor):
    """Streaming ``P_otr`` (Table 1, eq. 1).

    Good condition: a *uniform quorum round* -- every process has the same
    heard-of set and its cardinality exceeds ``2n/3``.  The cumulative
    verdict uses the earliest such round as the witness ``r0`` (any witness
    implies the earliest one works, since the second clause only needs
    rounds strictly after ``r0``) and then waits for every process to hear
    ``> 2n/3`` senders in some later round.  State: two integers.
    """

    name = "p_otr"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._threshold = otr_threshold(n)
        self._u_min: Optional[Round] = None
        self._later_big = 0  # processes with a > 2n/3 heard-of set after u_min

    def _round_good(self, masks: Sequence[int]) -> bool:
        first = masks[0]
        if bit_count(first) < self._threshold:
            return False
        return all(mask == first for mask in masks)

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        if self._later_big == self._full:
            return  # verdict is permanently True; nothing left to learn
        if self._u_min is not None:
            threshold = self._threshold
            later = self._later_big
            for p in range(self.n):
                if bit_count(masks[p]) >= threshold:
                    later |= 1 << p
            self._later_big = later
        elif good:
            self._u_min = round

    @property
    def verdict(self) -> bool:
        return self._u_min is not None and self._later_big == self._full


class PRestrOtrMonitor(PredicateMonitor):
    """Streaming ``P_restr_otr`` (Table 1, eq. 2).

    Good condition: the round hosts a *candidate* Pi0 -- a set of more than
    ``2n/3`` processes that all heard exactly each other.  The verdict
    tracks open candidates as ``{Pi0 mask: pending mask}`` where *pending*
    are the Pi0 members still lacking a later round with ``HO >= Pi0``;
    a candidate whose pending mask empties is a witness.  At most one new
    candidate can appear per round (two would have to be disjoint sets of
    more than ``2n/3`` processes each) and duplicates keep their earliest
    occurrence, so the candidate table stays tiny in practice -- but an
    adversary minting a fresh never-completed candidate every round does
    grow it by one integer pair per round; evicting entries would break
    verdict equivalence, so the table is deliberately unbounded.
    """

    name = "p_restr_otr"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._threshold = otr_threshold(n)
        self._candidates: Dict[int, int] = {}
        self._satisfied = False
        self._last_candidate = 0

    def _candidate_of(self, masks: Sequence[int]) -> int:
        seen = set()
        for p in range(self.n):
            mask = masks[p]
            if not (mask >> p) & 1 or mask in seen:
                continue
            seen.add(mask)
            if bit_count(mask) < self._threshold:
                continue
            if all(masks[q] == mask for q in iter_bits(mask)):
                return mask
        return 0

    def _round_good(self, masks: Sequence[int]) -> bool:
        # Cache the scan result: observe() calls _round_good then _advance
        # on the same masks, and the candidate scan is the most expensive
        # per-round monitor operation.
        self._last_candidate = self._candidate_of(masks)
        return self._last_candidate != 0

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        if self._satisfied:
            return
        completed = []
        for candidate, pending in self._candidates.items():
            remaining = pending
            for p in iter_bits(pending):
                if masks[p] & candidate == candidate:
                    remaining &= ~(1 << p)
            if remaining == 0:
                self._satisfied = True
                completed.append(candidate)
            else:
                self._candidates[candidate] = remaining
        if self._satisfied:
            self._candidates.clear()
            return
        if good:
            candidate = self._last_candidate
            if candidate and candidate not in self._candidates:
                # The second clause needs rounds strictly after r0, so the
                # pending mask starts full and this round does not clear it.
                self._candidates[candidate] = candidate

    @property
    def verdict(self) -> bool:
        return self._satisfied


class PSuMonitor(PredicateMonitor):
    """Streaming ``P_su(Pi0, 1, r)`` over the observed prefix (space uniformity).

    Good condition: the round is space uniform for Pi0 (every ``p in Pi0``
    has ``HO(p, r) = Pi0``).  The verdict is the "uniform throughout the
    run so far" reading: every observed round was good, and at least one
    round was observed (vacuously true for an empty Pi0).
    """

    name = "p_su"

    def __init__(self, n: int, pi0: Optional[Iterable[ProcessId]] = None) -> None:
        super().__init__(n)
        self.pi0_mask = _pi0_mask(pi0, n)
        self._ok = True

    def _round_good(self, masks: Sequence[int]) -> bool:
        pi0 = self.pi0_mask
        return all(masks[p] == pi0 for p in iter_bits(pi0))

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        if not good:
            self._ok = False

    @property
    def verdict(self) -> bool:
        if self._rounds_observed == 0:
            return False
        return self.pi0_mask == 0 or self._ok


class PKernelMonitor(PSuMonitor):
    """Streaming ``P_k(Pi0, 1, r)`` over the observed prefix (kernel rounds).

    Good condition: the round is a *kernel round* for Pi0 (every
    ``p in Pi0`` has ``HO(p, r) >= Pi0``); the verdict is that of
    :class:`PSuMonitor`.
    """

    name = "p_k"

    def _round_good(self, masks: Sequence[int]) -> bool:
        pi0 = self.pi0_mask
        return all(masks[p] & pi0 == pi0 for p in iter_bits(pi0))


class P2OtrMonitor(PredicateMonitor):
    """Streaming ``P_2otr(Pi0)``: a space-uniform round immediately followed by a kernel round.

    Good condition: the round is a kernel round for Pi0 (space-uniform
    rounds are kernel rounds, so this counts every round usable in the
    pattern).  The verdict fires, and stays true, once a kernel round
    directly follows a space-uniform round.  State: two booleans.
    """

    name = "p_2otr"

    def __init__(self, n: int, pi0: Optional[Iterable[ProcessId]] = None) -> None:
        super().__init__(n)
        self.pi0_mask = _pi0_mask(pi0, n)
        self._prev_su = False
        self._satisfied = False

    def _space_uniform(self, masks: Sequence[int]) -> bool:
        pi0 = self.pi0_mask
        return all(masks[p] == pi0 for p in iter_bits(pi0))

    def _round_good(self, masks: Sequence[int]) -> bool:
        pi0 = self.pi0_mask
        return all(masks[p] & pi0 == pi0 for p in iter_bits(pi0))

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        if self._prev_su and good:
            self._satisfied = True
        self._prev_su = self._space_uniform(masks)

    @property
    def verdict(self) -> bool:
        return self._satisfied


class P11OtrMonitor(P2OtrMonitor):
    """Streaming ``P_1/1otr(Pi0)``: a space-uniform round, then (eventually) a kernel round.

    Same good condition as :class:`P2OtrMonitor`; the verdict fires once
    any kernel round follows any strictly earlier space-uniform round
    (the earliest space-uniform round subsumes all later witnesses).
    """

    name = "p_1/1otr"

    def __init__(self, n: int, pi0: Optional[Iterable[ProcessId]] = None) -> None:
        super().__init__(n, pi0)
        self._su_seen = False

    def _advance(self, round: Round, masks: Sequence[int], good: bool) -> None:
        if self._su_seen and good:
            self._satisfied = True
        if self._space_uniform(masks):
            self._su_seen = True


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
    """Feeds a set of monitors from the round engine's record stream.

    Implements the :class:`~repro.rounds.engine.RoundObserver` hook: attach
    it to a :class:`~repro.rounds.engine.RoundEngine` (or an
    :class:`~repro.core.machine.HOMachine` / predimpl stack builder) via
    ``observers=[bank]`` and read :meth:`reports` when the run is over.
    With *stop_after_held* set, ``stop_requested`` turns true (and stays
    true) once any monitor's good condition held for that many consecutive
    rounds; the engine's owners poll it between rounds.
    """

    def __init__(
        self,
        n: int,
        monitors: Sequence[PredicateMonitor],
        stop_after_held: Optional[int] = None,
        completion_scope: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        if stop_after_held is not None and stop_after_held < 1:
            raise ValueError(f"stop_after_held must be at least 1, got {stop_after_held}")
        self.n = n
        self.monitors = list(monitors)
        self.stop_after_held = stop_after_held
        completion_mask = None if completion_scope is None else _pi0_mask(completion_scope, n)
        self._collator = RoundCollator(n, completion_mask=completion_mask)
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
        """Feed one completed round to every monitor (and, *live*, the stop rule)."""
        for monitor in self.monitors:
            monitor.observe(round, masks)
        if live and self.stop_after_held is not None:
            if any(m.current_good_run >= self.stop_after_held for m in self.monitors):
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
        """Finalize and return one report per monitor, keyed by predicate name."""
        self.finalize()
        return {monitor.name: monitor.report() for monitor in self.monitors}

    def reports_json(self) -> Dict[str, Dict]:
        """The reports in their JSON form (what sweep wire records carry)."""
        return {name: report.to_json_dict() for name, report in self.reports().items()}


def monitor_collection(
    collection, monitors: Sequence[PredicateMonitor]
) -> Dict[str, PredicateReport]:
    """Replay a recorded :class:`~repro.core.types.HOCollection` through monitors.

    The bridge between the two duals: feeding the collection round by round
    must reproduce exactly the whole-collection checkers' verdicts (this is
    what the equivalence property tests assert).  Useful for consumers that
    already hold a trace and want report-shaped statistics.
    """
    n = collection.n
    bank = MonitorBank(n, monitors)
    for round in collection.rounds():
        bank.observe_round(round, [collection.ho_mask(p, round) for p in range(n)])
    return bank.reports()


# --------------------------------------------------------------------------- #
# name-based construction (the CLI surface)
# --------------------------------------------------------------------------- #

#: Canonical monitorable predicate names, as accepted by :func:`build_monitor`
#: and the ``--predicates`` CLI flag.
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


def build_monitor_bank(
    n: int,
    predicates: Sequence[str],
    pi0: Optional[Iterable[ProcessId]] = None,
    stop_after_held: Optional[int] = None,
    completion_scope: Optional[Iterable[ProcessId]] = None,
) -> MonitorBank:
    """One bank with a monitor per name in *predicates* -- the scenario-runner helper.

    *pi0* scopes the Pi0-parameterised predicates (typically the fault
    model's surviving processes); *stop_after_held* is the bank's stop
    rule (must be >= 1 when given).
    *completion_scope* narrows the collator's round-completion quorum for
    step-level runs whose out-of-scope processes stop reporting forever.
    """
    if not predicates:
        raise ValueError("at least one predicate name is required")
    return MonitorBank(
        n,
        [build_monitor(name, n, pi0=pi0) for name in predicates],
        stop_after_held=stop_after_held,
        completion_scope=completion_scope,
    )


def build_monitor(
    name: str, n: int, pi0: Optional[Iterable[ProcessId]] = None
) -> PredicateMonitor:
    """Build the streaming monitor for predicate *name* (see :data:`MONITOR_NAMES`).

    *pi0* parameterises the Pi0-scoped predicates (default: the full
    process set).
    """
    key = canonical_predicate_name(name)
    if key == "p_otr":
        return POtrMonitor(n)
    if key == "p_restr_otr":
        return PRestrOtrMonitor(n)
    if key == "p_su":
        return PSuMonitor(n, pi0)
    if key == "p_k":
        return PKernelMonitor(n, pi0)
    if key == "p_2otr":
        return P2OtrMonitor(n, pi0)
    return P11OtrMonitor(n, pi0)


__all__ = [
    "DEFAULT_WINDOW",
    "MONITOR_NAMES",
    "PredicateMonitor",
    "POtrMonitor",
    "PRestrOtrMonitor",
    "PSuMonitor",
    "PKernelMonitor",
    "P2OtrMonitor",
    "P11OtrMonitor",
    "RoundCollator",
    "MonitorBank",
    "monitor_collection",
    "canonical_predicate_name",
    "build_monitor",
    "build_monitor_bank",
]
