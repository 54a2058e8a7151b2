"""Basic types of the Heard-Of (HO) model.

The HO model (Section 3 of the paper) is a communication-closed round model:
in every round ``r`` each process ``p`` sends a message computed by its
sending function ``S_p^r`` and then makes a state transition with its
transition function ``T_p^r`` applied to the partial vector of messages it
received in that round.  The *heard-of set* ``HO(p, r)`` is the set of
processes (possibly including ``p`` itself) from which ``p`` received a
message in round ``r``.  Every fault -- a process crash, a send or receive
omission, a message loss on a link -- manifests at this level as a
*transmission fault*: the sender is simply absent from the heard-of set.

This module defines the identifiers, heard-of collections and run traces
shared by the algorithmic layer (:mod:`repro.algorithms`), the predicate
layer (:mod:`repro.predicates`) and the predicate-implementation layer
(:mod:`repro.predimpl`).

Heard-of sets are stored as integer bitmasks internally (one bit per
process, see :mod:`repro.rounds.bitmask`); ``frozenset`` is the
representation at API boundaries (:meth:`HOCollection.ho`,
:attr:`RoundRecord.ho_set`).  Hot paths use :meth:`HOCollection.record_mask`
and :meth:`HOCollection.ho_mask` and never build a set object per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..rounds.bitmask import (
    full_mask,
    iter_bits,
    mask_of,
    mask_to_frozenset,
)
from ..rounds.record import DecisionRecord, RoundRecord

#: A process identifier.  Processes are numbered ``0 .. n-1``.
ProcessId = int

#: A round number.  Rounds start at 1, matching the paper (``r > 0``).
Round = int

#: A heard-of set: the set of processes a given process heard of in a round.
HOSet = FrozenSet[ProcessId]

def all_processes(n: int) -> FrozenSet[ProcessId]:
    """Return the full process set ``Pi = {0, ..., n-1}``."""
    if n <= 0:
        raise ValueError(f"number of processes must be positive, got {n}")
    return frozenset(range(n))


def validate_process_subset(subset: Iterable[ProcessId], n: int) -> FrozenSet[ProcessId]:
    """Validate that *subset* only contains processes in ``0 .. n-1``.

    Returns the subset as a frozenset.  Raises :class:`ValueError` otherwise.
    """
    result = frozenset(subset)
    if not result.issubset(all_processes(n)):
        bad = sorted(result - all_processes(n))
        raise ValueError(f"process ids {bad} are outside 0..{n - 1}")
    return result


class HOCollection:
    """A recorded collection of heard-of sets ``HO(p, r)``.

    Communication predicates (:mod:`repro.predicates`) are evaluated
    over instances of this class.  The collection is *finite*: it covers the
    rounds ``1 .. max_round`` actually executed by a run.  Predicates of the
    form "there exists a round such that ..." are interpreted over that
    finite window, which is the standard way of checking liveness-enabling
    predicates on finite executions.

    Heard-of sets are stored as bitmasks; :meth:`ho` converts to
    ``frozenset`` at the API boundary (memoised per distinct mask), while
    :meth:`ho_mask` / :meth:`record_mask` are the allocation-free hot path.
    """

    __slots__ = ("_n", "_full", "_masks", "_frozen_cache", "_max_round")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"number of processes must be positive, got {n}")
        self._n = n
        self._full = full_mask(n)
        self._masks: Dict[Tuple[ProcessId, Round], int] = {}
        self._frozen_cache: Dict[int, HOSet] = {}
        self._max_round: Round = 0

    @property
    def n(self) -> int:
        """Number of processes in the system."""
        return self._n

    @property
    def processes(self) -> FrozenSet[ProcessId]:
        """The full process set Pi."""
        return all_processes(self._n)

    @property
    def full_mask(self) -> int:
        """The bitmask of the full process set Pi."""
        return self._full

    @property
    def max_round(self) -> Round:
        """The largest round for which at least one HO set was recorded."""
        return self._max_round

    def record(self, process: ProcessId, round: Round, ho_set: Iterable[ProcessId]) -> None:
        """Record ``HO(process, round)`` from an iterable of process ids.

        Re-recording the same (process, round) pair overwrites the previous
        value; this is convenient for simulators that finalise a round only
        when the transition function runs.
        """
        # Validate before masking: a negative id would otherwise surface as
        # an opaque "negative shift count" from mask_of.
        self.record_mask(process, round, mask_of(validate_process_subset(ho_set, self._n)))

    def record_mask(self, process: ProcessId, round: Round, mask: int) -> None:
        """Record ``HO(process, round)`` from a bitmask (the hot path)."""
        if not 0 <= process < self._n:
            raise ValueError(f"process {process} outside 0..{self._n - 1}")
        if round <= 0:
            raise ValueError(f"round numbers start at 1, got {round}")
        if mask & ~self._full:
            bad = sorted(iter_bits(mask & ~self._full))
            raise ValueError(f"process ids {bad} are outside 0..{self._n - 1}")
        self._masks[(process, round)] = mask
        if round > self._max_round:
            self._max_round = round

    def ho(self, process: ProcessId, round: Round) -> HOSet:
        """Return ``HO(process, round)``; the empty set if nothing recorded."""
        mask = self._masks.get((process, round), 0)
        cached = self._frozen_cache.get(mask)
        if cached is None:
            cached = mask_to_frozenset(mask)
            self._frozen_cache[mask] = cached
        return cached

    def ho_mask(self, process: ProcessId, round: Round) -> int:
        """Return ``HO(process, round)`` as a bitmask; 0 if nothing recorded."""
        return self._masks.get((process, round), 0)

    def has_record(self, process: ProcessId, round: Round) -> bool:
        """Whether an HO set was explicitly recorded for (process, round)."""
        return (process, round) in self._masks

    def rounds(self) -> range:
        """The range of rounds ``1 .. max_round`` covered by the collection."""
        return range(1, self._max_round + 1)

    def kernel_mask(self, round: Round, scope_mask: Optional[int] = None) -> int:
        """The kernel of *round* as a bitmask (scope defaults to Pi)."""
        scope = self._full if scope_mask is None else scope_mask
        if scope == 0:
            return 0
        result = self._full
        for p in iter_bits(scope):
            result &= self._masks.get((p, round), 0)
            if not result:
                break
        return result

    def kernel(self, round: Round, scope: Optional[Iterable[ProcessId]] = None) -> HOSet:
        """The kernel of *round*: processes heard by every process in *scope*.

        ``K(r) = intersection over p in scope of HO(p, r)``.  The default
        scope is the full process set Pi.
        """
        scope_mask = (
            None if scope is None else mask_of(validate_process_subset(scope, self._n))
        )
        return mask_to_frozenset(self.kernel_mask(round, scope_mask))

    def is_space_uniform(self, round: Round, scope: Optional[Iterable[ProcessId]] = None) -> bool:
        """Whether all processes in *scope* have the same HO set in *round*."""
        members = (
            range(self._n)
            if scope is None
            else sorted(validate_process_subset(scope, self._n))
        )
        first: Optional[int] = None
        for p in members:
            mask = self._masks.get((p, round), 0)
            if first is None:
                first = mask
            elif mask != first:
                return False
        return True

    def items(self) -> Iterator[Tuple[ProcessId, Round, HOSet]]:
        """Iterate over recorded ``(process, round, HO set)`` triples."""
        for (p, r) in sorted(self._masks, key=lambda key: (key[1], key[0])):
            yield p, r, self.ho(p, r)

    def restrict(self, scope: Iterable[ProcessId]) -> "HOCollection":
        """Return a copy with HO sets intersected with *scope*.

        Useful for analysing the behaviour of a subsystem ``pi0``.
        """
        scope_mask = mask_of(validate_process_subset(scope, self._n))
        out = HOCollection(self._n)
        for (p, r), mask in self._masks.items():
            if (scope_mask >> p) & 1:
                out.record_mask(p, r, mask & scope_mask)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HOCollection):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HOCollection(n={self._n}, rounds=1..{self._max_round})"


@dataclass
class RunTrace:
    """The full trace of a round-level run.

    Holds the heard-of collection, per-round per-process records under the
    unified :class:`~repro.rounds.record.RoundRecord` schema, the decisions
    observed, and message accounting.  The analysis layer
    (:mod:`repro.analysis`) checks consensus properties and communication
    predicates against instances of this class.

    ``RunTrace`` implements the :class:`repro.rounds.engine.RoundTraceSink`
    protocol, so the shared :class:`~repro.rounds.engine.RoundEngine` writes
    into it directly.
    """

    n: int
    ho_collection: HOCollection
    records: List[RoundRecord] = field(default_factory=list)
    initial_values: Dict[ProcessId, Any] = field(default_factory=dict)
    messages_sent: int = 0
    messages_delivered: int = 0

    # ------------------------------------------------------------------ #
    # RoundTraceSink protocol (written to by the RoundEngine)
    # ------------------------------------------------------------------ #

    def record_round_result(self, record: RoundRecord) -> None:
        """Append one unified per-round record (and index its HO set)."""
        self.records.append(record)
        self.ho_collection.record_mask(record.process, record.round, record.ho_mask)

    def record_decision(self, process: ProcessId, value: Any, round: Round, time: float) -> None:
        """No-op: round-level decisions are derived from the records."""

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def decisions(self) -> Dict[ProcessId, Any]:
        """Map of process -> first decision value (processes without a decision are absent)."""
        out: Dict[ProcessId, Any] = {}
        for record in self.records:
            if record.decision is not None and record.process not in out:
                out[record.process] = record.decision
        return out

    def decision_rounds(self) -> Dict[ProcessId, Round]:
        """Map of process -> round in which it first decided."""
        out: Dict[ProcessId, Round] = {}
        for record in self.records:
            if record.decision is not None and record.process not in out:
                out[record.process] = record.round
        return out

    def decision_records(self) -> Dict[ProcessId, DecisionRecord]:
        """Map of process -> unified first-decision record (time = round number)."""
        out: Dict[ProcessId, DecisionRecord] = {}
        for record in self.records:
            if record.decision is not None and record.process not in out:
                time = record.time if record.time is not None else float(record.round)
                out[record.process] = DecisionRecord(
                    record.process, record.decision, record.round, time
                )
        return out

    def decision_values(self) -> Dict[ProcessId, Any]:
        """Map process -> decided value (the unified-trace spelling of :meth:`decisions`)."""
        return self.decisions()

    def all_decided(self, scope: Optional[Iterable[ProcessId]] = None) -> bool:
        """Whether every process in *scope* (default: all) decided."""
        scope_set = all_processes(self.n) if scope is None else validate_process_subset(scope, self.n)
        decided = set(self.decisions())
        return scope_set.issubset(decided)

    def rounds_executed(self) -> Round:
        """The number of rounds recorded in the trace."""
        return self.ho_collection.max_round


__all__ = [
    "ProcessId",
    "Round",
    "HOSet",
    "HOCollection",
    "RoundRecord",
    "DecisionRecord",
    "RunTrace",
    "all_processes",
    "validate_process_subset",
]
