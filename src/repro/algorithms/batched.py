"""Batched (replica-vectorised) transition kernels for the consensus algorithms.

A *batch kernel* is the ``(R, n)``-array dual of a scalar algorithm's
``send``/``transition``/``decision`` triple: it advances R independent
replicas of the same algorithm through one lockstep round at a time, given
the round's boolean heard-matrix ``H[r, p, q]`` ("replica r's process p
heard sender q").  Kernels are the compute core of the batch execution
backend (:mod:`repro.batch`); the contract -- checked by the equivalence
tests -- is that replica ``r`` evolves *bit-identically* to a scalar run of
the same algorithm under the same heard-of sets, including tie-breaking.

Values are encoded per replica as integer *codes* into a sorted table of
that replica's distinct initial values.  The encoding is order-isomorphic
(codes sort exactly like values), so ``min``/equality/counting on codes
reproduce the scalar semantics; every shipped algorithm only ever adopts
received values, so the table never grows.  Replicas whose initial values
are not totally ordered (or not hashable) cannot be encoded --
:func:`encode_values` raises :class:`BatchUnsupported` and the backend
falls back to the scalar loop.

Every array tier builds a kernel the same way, :meth:`BatchKernel.from_cells`:
one row space for the replicas of one or many cells, each task's values
encoded exactly once, a cell that cannot be represented set aside with its
rendered reason while the others are still built.

The scalar tie-breaks faithfully reproduced here:

* OneThirdRule needs none: a value it adopts or decides is the *unique*
  most frequent one (see :meth:`BatchOneThirdRule.step`), so the scalar
  ``Counter.most_common`` insertion-order tie-break is never observable;
* UniformVoting's ``votes[0]`` is the vote of the lowest-id heard sender
  carrying one;
* LastVoting's coordinator picks, among highest-timestamp estimates, the
  value that is smallest *by* ``repr`` (the scalar ``sorted(..., key=repr)``),
  which the kernel precomputes as a per-replica repr-rank permutation.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..rounds.fallback import FallbackReason
from .last_voting import LastVoting
from .one_third_rule import OneThirdRule
from .uniform_voting import UniformVoting


class BatchUnsupported(Exception):
    """Raised when a batch kernel cannot represent the requested replicas.

    The batch backend treats this as "vectorisation cannot engage" and runs
    the per-replica scalar fallback loop instead; it is never a user error.
    """


def encode_values(initial_values: Sequence[Any]) -> Tuple[List[Any], List[int]]:
    """Encode one replica's initial values as codes into a sorted value table.

    Returns ``(table, codes)`` with ``table`` sorted ascending and
    ``codes[p]`` the index of process p's value.  Raises
    :class:`BatchUnsupported` when the values are not mutually comparable
    or not hashable (the scalar algorithms need total order anyway, but the
    kernel must refuse rather than guess), or when two values compare equal
    yet differ in ``repr`` (e.g. ``1`` and ``1.0``): the encoding keeps one
    representative per equality class, which would silently change the
    estimates the scalar path reports -- and LastVoting's repr tie-break --
    so such batches take the scalar loop instead.
    """
    try:
        table = sorted(set(initial_values))
    except TypeError as exc:
        raise BatchUnsupported(
            FallbackReason.UNENCODABLE_VALUES.render(error=exc)
        ) from None
    index = {value: code for code, value in enumerate(table)}
    codes = []
    for value in initial_values:
        code = index[value]
        if repr(table[code]) != repr(value):
            raise BatchUnsupported(
                FallbackReason.VALUE_REPR_COLLISION.render(kept=table[code], value=value)
            )
        codes.append(code)
    return table, codes


class BatchKernel(abc.ABC):
    """R replicas of one algorithm, advanced one lockstep round at a time.

    Subclasses own the per-field state arrays; the shared base holds the
    value encoding, the decision bookkeeping (``decision_code`` with ``-1``
    for undecided, ``decision_round``) and the decode helpers the engine
    uses for outcomes and fingerprints.
    """

    #: the scalar algorithm class this kernel is the dual of.
    algorithm_class: Type[Any]

    @classmethod
    def from_cells(
        cls, batches: Sequence[Any]
    ) -> Tuple[Optional["BatchKernel"], Dict[int, str]]:
        """One row space for every replica of *batches*, and the cells left out.

        Returns ``(kernel, declined)``: *declined* maps the index of every
        batch the kernel cannot represent to its rendered reason, and
        *kernel* holds the other batches' replicas (None when none is left).
        Rows are cell-major, ``n_max`` wide; a row of a narrower cell is
        padded (the mixed-``row_n`` mode), and ``row_n`` is None when every
        cell is ``n_max`` wide, so a one-cell row space is unpadded.  Each
        task's values are encoded once, here.
        """
        declined: Dict[int, str] = {}
        cells = []
        for index, batch in enumerate(batches):
            try:
                params = cls._cell_parameters(batch)
                encoded = [encode_values(task.initial_values) for task in batch.tasks]
            except BatchUnsupported as exc:
                declined[index] = str(exc)
            else:
                cells.append((batch.n, encoded, params))
        if not cells:
            return None, declined
        n_max = max(n for n, _, _ in cells)
        rows: List[Tuple[List[Any], List[int]]] = []
        row_n: List[int] = []
        row_params: Dict[str, List[Any]] = {}
        for n, encoded, params in cells:
            # Padding duplicates the first value: the code table is a set,
            # so the extra columns change nothing, and padded receivers
            # never hear anyone so they never act on it.
            rows.extend((table, codes + codes[:1] * (n_max - n)) for table, codes in encoded)
            row_n.extend([n] * len(encoded))
            for name, values in params.items():
                row_params.setdefault(name, []).extend(values)
        uniform = all(n == n_max for n in row_n)
        return cls(n_max, rows, None if uniform else row_n, **row_params), declined

    @classmethod
    def _cell_parameters(cls, batch: Any) -> Dict[str, List[Any]]:
        """Per-row constructor arguments the rows of *batch* contribute.

        The default reads nothing beyond ``(n, initial_values)``; a kernel
        whose rows carry task parameters (the translation's ``f``) overrides
        this and raises :class:`BatchUnsupported` for a cell it cannot
        represent.
        """
        return {}

    def __init__(
        self,
        n: int,
        encoded: Sequence[Tuple[List[Any], Sequence[int]]],
        row_n: Optional[Sequence[int]] = None,
    ) -> None:
        """*encoded* holds one :func:`encode_values` ``(table, codes)`` pair
        per row; :meth:`from_cells` derives it and *row_n* from validated
        batches, and is how the backends build every kernel."""
        self.n = n
        self.replicas = len(encoded)
        # Mixed-n row spaces: row r simulates row_n[r] <= n real processes;
        # columns above row_n[r] are padding.  Padded receivers must be fed
        # empty heard-rows (they then never pass an update gate), and
        # n-relative thresholds use the row's n.
        self.row_n = None if row_n is None else np.array(row_n, dtype=np.int32)
        for _, codes in encoded:
            if len(codes) != n:
                raise ValueError(f"expected {n} initial values, got {len(codes)}")
        self.tables = [table for table, _ in encoded]
        #: (R, n) int32 -- the current estimate of every process, as a code.
        self.x = np.array([codes for _, codes in encoded], dtype=np.int32)
        #: (R, n) int32 -- decision codes, -1 while undecided.
        self.decision_code = np.full((self.replicas, n), -1, dtype=np.int32)
        #: (R, n) int32 -- round of first decision, 0 while undecided.
        self.decision_round = np.zeros((self.replicas, n), dtype=np.int32)

    # ------------------------------------------------------------------ #
    # the lockstep step
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def step(self, round: int, heard: Any, active: Any) -> None:
        """Advance every replica where ``active[r]`` through *round*.

        *heard* is the round's boolean heard-matrix ``(R, n, n)``
        (receiver-major); inactive replicas' state must not change.
        """

    def _scratch(self, name: str, shape: Tuple[int, ...], dtype: Any) -> Any:
        """A reusable uninitialised buffer keyed by *name*.

        ``step`` runs every round over the same ``(R, n)`` shapes, so its
        large temporaries (one-hot tables, float matmul operands) are
        allocated once here and rewritten in place each round instead of
        churning fresh arrays.  A buffer is reallocated when the requested
        shape or dtype changes -- row compaction shrinks R mid-run.  The
        store is created on first use (``self.__dict__``) because not every
        kernel routes through :meth:`BatchKernel.__init__`.
        """
        buffers = self.__dict__.setdefault("_scratch_buffers", {})
        buffer = buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            buffers[name] = buffer
        return buffer

    def _record_decisions(self, round: int, fire: Any, value_codes: Any) -> None:
        """Latch first decisions: where *fire*, decide *value_codes* at *round*."""
        fresh = fire & (self.decision_code < 0)
        self.decision_code = np.where(fresh, value_codes, self.decision_code)
        self.decision_round = np.where(fresh, round, self.decision_round)

    def _row_sizes(self) -> Any:
        """Per-row process count as an ``(R, 1)`` column (scalar when uniform)."""
        if self.row_n is None:
            return np.int32(self.n)
        return self.row_n[:, None]

    # ------------------------------------------------------------------ #
    # row compaction (the round loop retires finished rows)
    # ------------------------------------------------------------------ #

    def _state_array_names(self) -> List[str]:
        """The per-row state arrays a :meth:`compact` must gather."""
        return ["x", "decision_code", "decision_round"]

    def compact(self, keep: Any) -> None:
        """Keep only the rows indexed by *keep* (ascending), in that order.

        The round loop retires rows as their replicas finish; compaction
        gathers every per-row state array so the lockstep step touches only
        the rows kept.  Callers own the old-index -> new-index mapping.
        """
        keep = np.asarray(keep, dtype=np.int64)
        for name in self._state_array_names():
            setattr(self, name, getattr(self, name)[keep])
        self.tables = [self.tables[int(i)] for i in keep]
        if self.row_n is not None:
            self.row_n = self.row_n[keep]
        self.replicas = len(self.tables)

    # ------------------------------------------------------------------ #
    # engine-facing queries
    # ------------------------------------------------------------------ #

    def decided(self) -> Any:
        """(R, n) bool -- which processes have decided."""
        return self.decision_code >= 0

    def scope_all_decided(self, scope: Any) -> Any:
        """(R,) bool -- rows in which every process of the row's scope decided.

        *scope* is ``(R, n)`` bool, one decide scope per row (the rows of a
        shared row space need not agree); an empty scope is decided.
        """
        return (self.decided() | ~scope).all(axis=1)

    def decode(self, replica: int, code: int) -> Any:
        return self.tables[replica][code]

    def decisions_of(self, replica: int) -> Tuple[Dict[int, Any], Dict[int, int]]:
        """The (decisions, decision_rounds) dicts of one replica, decoded."""
        decisions: Dict[int, Any] = {}
        rounds: Dict[int, int] = {}
        row = self.decision_code[replica]
        for p in range(self.n):
            code = int(row[p])
            if code >= 0:
                decisions[p] = self.tables[replica][code]
                rounds[p] = int(self.decision_round[replica, p])
        return decisions, rounds

    def estimate_reprs(self, replica: int) -> List[str]:
        """``repr`` of every process's current estimate (fingerprint food)."""
        table = self.tables[replica]
        return [repr(table[int(code)]) for code in self.x[replica]]

    def newly_decided(self, replica: int, decided_before: Any) -> List[Tuple[int, str]]:
        """Decisions that fired this round in *replica* (fingerprint food)."""
        out: List[Tuple[int, str]] = []
        row = self.decision_code[replica]
        for p in range(self.n):
            if row[p] >= 0 and not decided_before[replica, p]:
                out.append((p, repr(self.tables[replica][int(row[p])])))
        return out

    # shared helpers ---------------------------------------------------- #

    def _heard_codes(self, heard: Any, fill: int) -> Any:
        """(R, n, n) scratch -- ``x[r, q]`` where ``heard[r, p, q]``, else *fill*.

        Arithmetic rather than ``where``: ``heard * (x - fill) + fill`` is
        branch-free and writes straight into the reused buffer.
        """
        fill = np.int32(fill)
        codes = self._scratch("heard_codes", heard.shape, np.int32)
        np.multiply(heard, (self.x - fill)[:, None, :], out=codes)
        np.add(codes, fill, out=codes)
        return codes

    def _min_heard_code(self, heard: Any) -> Any:
        """(R, n) -- min estimate code among heard senders (garbage when none)."""
        return self._heard_codes(heard, self.n + 1).min(axis=2)


class BatchOneThirdRule(BatchKernel):
    """The ``(R, n)`` dual of :class:`~repro.algorithms.OneThirdRule`."""

    algorithm_class = OneThirdRule

    def step(self, round: int, heard: Any, active: Any) -> None:
        n = self.n
        x = self.x
        n_col = self._row_sizes()                                   # row's n
        hc = heard.sum(axis=2, dtype=np.int32)                      # (R, n)
        act = active[:, None] & (3 * hc > 2 * n_col)                # update gate

        # Multiplicity of every value code among heard senders, via one
        # batched matmul: counts[r, p, v] = |{q in HO(p) : x_q = v}|.
        shape = (self.replicas, n, n)
        onehot = self._scratch("otr_onehot", shape, np.float32)
        np.equal(x[:, :, None], np.arange(n, dtype=np.int32), out=onehot)
        heard_f = self._scratch("otr_heard_f32", shape, np.float32)
        np.copyto(heard_f, heard)
        counts = self._scratch("otr_counts", shape, np.float32)
        np.matmul(heard_f, onehot, out=counts)                      # (R, n, n)
        # The top code is unique wherever it is read: adopting needs
        # hc - top <= n//3 and the gate gives 3*hc > 2n, deciding needs
        # 3*top > 2n with hc <= n; either way top > hc - top, so no second
        # code reaches top and argmax's first-maximum rule never chooses
        # (the scalar Counter.most_common tie-break is equally unobservable).
        winner = counts.argmax(axis=2)                              # (R, n)
        top_i = np.take_along_axis(counts, winner[:, :, None], axis=2)[:, :, 0]
        top_i = top_i.astype(np.int32)
        winner = winner.astype(np.int32)

        # Codes sort like values, so the smallest heard value is the first
        # code with a nonzero count (garbage when nothing was heard).
        flags = self._scratch("otr_flags", shape, bool)
        np.greater(counts, 0, out=flags)
        min_heard = flags.argmax(axis=2).astype(np.int32)

        adopt_top = (hc - top_i) <= n_col // 3
        new_x = np.where(adopt_top, winner, min_heard)
        self.x = np.where(act, new_x, x)

        # A value with multiplicity > 2n/3 is unique, and is the top value.
        self._record_decisions(round, act & (3 * top_i > 2 * n_col), winner)


class BatchUniformVoting(BatchKernel):
    """The ``(R, n)`` dual of :class:`~repro.algorithms.UniformVoting`."""

    algorithm_class = UniformVoting

    def __init__(
        self,
        n: int,
        encoded: Sequence[Tuple[List[Any], Sequence[int]]],
        row_n: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(n, encoded, row_n)
        #: (R, n) int32 -- current-phase vote codes, -1 for None.
        self.vote = np.full((self.replicas, n), -1, dtype=np.int32)

    def _state_array_names(self) -> List[str]:
        return super()._state_array_names() + ["vote"]

    def step(self, round: int, heard: Any, active: Any) -> None:
        n = self.n
        hc = heard.sum(axis=2, dtype=np.int32)
        act = np.broadcast_to(active[:, None], (self.replicas, n))
        if round % 2 == 1:
            # Voting round: vote for the common estimate iff every heard
            # estimate is equal (and something was heard); else vote None.
            lo = self._min_heard_code(heard)
            hi = self._heard_codes(heard, -1).max(axis=2)
            unanimous = (hc > 0) & (lo == hi)
            self.vote = np.where(act, np.where(unanimous, lo, np.int32(-1)), self.vote)
            return

        # Resolve round: adopt the first heard vote (or the min estimate),
        # decide iff every heard sender voted; votes always reset.
        has_any = hc > 0
        votes_heard = self._scratch("uv_votes_heard", heard.shape, bool)
        np.logical_and(heard, (self.vote >= 0)[:, None, :], out=votes_heard)
        nv = votes_heard.sum(axis=2, dtype=np.int32)
        qstar = votes_heard.argmax(axis=2)
        first_vote = np.take_along_axis(self.vote, qstar, axis=1)
        new_x = np.where(nv > 0, first_vote, self._min_heard_code(heard))
        upd = act & has_any
        self.x = np.where(upd, new_x, self.x)
        self._record_decisions(round, upd & (nv == hc), first_vote)
        self.vote = np.where(act, np.int32(-1), self.vote)


class BatchLastVoting(BatchKernel):
    """The ``(R, n)`` dual of :class:`~repro.algorithms.LastVoting`."""

    algorithm_class = LastVoting

    ROUNDS_PER_PHASE = LastVoting.ROUNDS_PER_PHASE

    def __init__(
        self,
        n: int,
        encoded: Sequence[Tuple[List[Any], Sequence[int]]],
        row_n: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(n, encoded, row_n)
        shape = (self.replicas, n)
        self.timestamp = np.zeros(shape, dtype=np.int32)
        self.vote = np.full(shape, -1, dtype=np.int32)
        self.commit = np.zeros(shape, dtype=bool)
        self.ready = np.zeros(shape, dtype=bool)
        # The coordinator breaks value ties by repr order (the scalar
        # ``sorted(..., key=repr)``): per replica, rank codes by the repr of
        # their value and keep the inverse permutation, padded to width n.
        rank_of_code = np.zeros(shape, dtype=np.int32)
        code_at_rank = np.zeros(shape, dtype=np.int32)
        for r, table in enumerate(self.tables):
            order = sorted(range(len(table)), key=lambda code: repr(table[code]))
            for rank, code in enumerate(order):
                rank_of_code[r, code] = rank
                code_at_rank[r, rank] = code
        self.rank_of_code = rank_of_code
        self.code_at_rank = code_at_rank

    def _state_array_names(self) -> List[str]:
        return super()._state_array_names() + [
            "timestamp",
            "vote",
            "commit",
            "ready",
            "rank_of_code",
            "code_at_rank",
        ]

    def _gather(self, array: Any, coord: Any) -> Any:
        """``array[r, coord[r]]`` as an ``(R,)`` vector."""
        return np.take_along_axis(array, coord[:, None], axis=1)[:, 0]

    def _scatter(self, array: Any, coord: Any, values: Any) -> None:
        """``array[r, coord[r]] = values[r]`` in place."""
        np.put_along_axis(array, coord[:, None], values[:, None], axis=1)

    def step(self, round: int, heard: Any, active: Any) -> None:
        n = self.n
        phase = (round - 1) // self.ROUNDS_PER_PHASE + 1
        step = (round - 1) % self.ROUNDS_PER_PHASE + 1
        # The phase coordinator is n-relative, hence per row in a mixed-n
        # batch: row r's coordinator is (phase - 1) % row_n[r].
        if self.row_n is None:
            coord = np.full(self.replicas, (phase - 1) % n, dtype=np.int32)
            n_row = np.int32(n)
        else:
            coord = ((phase - 1) % self.row_n).astype(np.int32)
            n_row = self.row_n
        idx = coord[:, None, None]
        heard_by_coord = np.take_along_axis(heard, idx, axis=1)[:, 0, :]  # (R, n)
        hears_coord = np.take_along_axis(heard, idx, axis=2)[:, :, 0]     # (R, n)

        if step == 1:
            # Coordinator selects the best-timestamped estimate from a
            # majority, smallest by repr among ties.
            hc = heard_by_coord.sum(axis=1, dtype=np.int32)
            upd = active & (2 * hc > n_row)
            best_ts = np.where(heard_by_coord, self.timestamp, np.int32(-1)).max(axis=1)
            eligible = heard_by_coord & (self.timestamp == best_ts[:, None])
            rank_x = np.take_along_axis(self.rank_of_code, self.x, axis=1)
            best_rank = np.where(eligible, rank_x, np.int32(n)).min(axis=1)
            best_rank = np.minimum(best_rank, np.int32(n - 1))
            selected = np.take_along_axis(
                self.code_at_rank, best_rank[:, None], axis=1
            )[:, 0]
            vote_coord = self._gather(self.vote, coord)
            self._scatter(self.vote, coord, np.where(upd, selected, vote_coord))
            self._scatter(self.commit, coord, self._gather(self.commit, coord) | upd)
            return

        if step == 2:
            # Everyone who hears a committed coordinator adopts its vote.
            commit_coord = self._gather(self.commit, coord)
            vote_coord = self._gather(self.vote, coord)
            upd = active[:, None] & hears_coord & commit_coord[:, None]
            self.x = np.where(upd, vote_coord[:, None], self.x)
            self.timestamp = np.where(upd, np.int32(phase), self.timestamp)
            return

        if step == 3:
            # Coordinator counts acks (current-phase timestamps) for a majority.
            acks = (heard_by_coord & (self.timestamp == phase)).sum(axis=1, dtype=np.int32)
            ready = active & (2 * acks > n_row)
            self._scatter(self.ready, coord, self._gather(self.ready, coord) | ready)
            return

        # Step 4: decide on a heard "decide"; the phase flags always reset.
        ready_coord = self._gather(self.ready, coord)
        vote_coord = self._gather(self.vote, coord)
        fire = active[:, None] & hears_coord & ready_coord[:, None]
        self._record_decisions(round, fire, vote_coord[:, None])
        act = active[:, None]
        self.commit &= ~act
        self.ready &= ~act


#: Kernel lookup by scalar algorithm class (subclasses resolve to their base
#: kernel unless they register their own).
_KERNELS: Dict[Type[Any], Type[BatchKernel]] = {
    OneThirdRule: BatchOneThirdRule,
    UniformVoting: BatchUniformVoting,
    LastVoting: BatchLastVoting,
}


def register_batch_kernel(algorithm_class: Type[Any], kernel: Type[BatchKernel]) -> None:
    """Register *kernel* as the batched dual of *algorithm_class*."""
    _KERNELS[algorithm_class] = kernel


def batch_kernel_for(algorithm: Any) -> Optional[Type[BatchKernel]]:
    """The kernel class for a scalar algorithm instance, or None.

    Exact class match only: a subclass may have overridden ``transition``,
    and silently running the base kernel would break bit-identity.
    """
    return _KERNELS.get(type(algorithm))


__all__ = [
    "BatchUnsupported",
    "encode_values",
    "BatchKernel",
    "BatchOneThirdRule",
    "BatchUniformVoting",
    "BatchLastVoting",
    "register_batch_kernel",
    "batch_kernel_for",
]
