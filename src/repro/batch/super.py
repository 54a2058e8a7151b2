"""The cross-cell super-batch engine: the whole grid as one lockstep unit.

:class:`~repro.batch.backends.BatchBackend` vectorises the R replicas of
*one* sweep cell; the grid axis -- (scenario, fault model, n, seed-count)
cells -- remains a Python loop, and small-n cells leave most of the array
width idle.  :class:`SuperBatchBackend` packs B heterogeneous cells into a
single padded row space instead:

* estimates live in one ``(sum(R_b), n_max)`` code array (the batch
  kernels' mixed-``row_n`` mode: columns above a row's own n are padding
  that never passes an update gate);
* heard-of sets live in one ``(sum(R_b), n_max, ceil(n_max/64))`` uint64
  word buffer, each cell's oracle scattering its ``(R_b, n_b, W_b)`` block
  into the top-left corner of its rows;
* one lockstep loop steps *all* rows each round, retiring rows as their
  replicas decide (or hit their horizon) and compacting the kernel when
  occupancy drops below :data:`COMPACT_THRESHOLD`.

Heterogeneous horizons, scopes and fault models coexist because every
per-row quantity -- n, horizon, scope mask, full-horizon flag -- is a row
vector, and the counter-based oracle duals (:mod:`repro.adversaries.
counter_batch`) need no per-replica query loop.  Cells the shared admission
(:func:`repro.batch.backends.admit`) or this tier's own rungs decline
(kernels built from the full task context, monitored or fingerprinted
runs, unencodable values) fall back to the per-cell batch backend -- the
same outcomes, cell by cell; ``last_fallback_reasons`` records which and why.

The contract is unchanged: per seed, outcomes are bit-identical to the
scalar reference backend (and hence to the per-cell batch backend).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._optional import require_numpy
from ..rounds.backend import ReplicaBatch, ReplicaOutcome, register_backend
from ..rounds.bitmask import iter_bits, word_count
from ..rounds.fallback import FallbackReason
from .arrays import popcount_words, unpack_words
from .backends import BatchBackend, admit
from .engine import assemble_outcomes

#: Compact the kernel when live rows drop below this fraction of its rows.
COMPACT_THRESHOLD = 0.5
#: ... but only when at least this many rows would be dropped (anti-thrash).
COMPACT_MIN_DROP = 32


class SuperBatchBackend:
    """Cross-cell lockstep execution: many ReplicaBatches, one round loop."""

    name = "super"

    def __init__(self) -> None:
        self._cell_backend = BatchBackend()
        #: why the last single-batch ``run`` left the super path (None = it
        #: super-batched).  Mirrors ``BatchBackend.last_fallback_reason``.
        self.last_fallback_reason: Optional[str] = None
        #: per input index of the last ``run_batches``: the fallback reason
        #: of every cell that took the per-cell batch path.
        self.last_fallback_reasons: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        return self.run_batches([batch])[0]

    def run_batches(
        self, batches: Sequence[ReplicaBatch]
    ) -> List[List[ReplicaOutcome]]:
        """Execute every batch, super-batching all eligible cells together.

        Returns one outcome list per input batch, in input order; each list
        is in task order, exactly as the per-cell backends return it.
        """
        self.last_fallback_reasons = {}
        results: List[Optional[List[ReplicaOutcome]]] = [None] * len(batches)
        groups: Dict[Any, List[int]] = {}
        for i, batch in enumerate(batches):
            reason, kernel_class = self._eligibility(batch)
            if reason is not None:
                self.last_fallback_reasons[i] = reason
                results[i] = self._cell_backend.run(batch)
            else:
                groups.setdefault(kernel_class, []).append(i)
        for kernel_class, indices in groups.items():
            outcomes = _SuperBatchEngine(
                kernel_class, [batches[i] for i in indices]
            ).run()
            for i, cell_outcomes in zip(indices, outcomes):
                results[i] = cell_outcomes
        self.last_fallback_reason = self.last_fallback_reasons.get(0) if batches else None
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # the super-batch eligibility decision
    # ------------------------------------------------------------------ #

    def _eligibility(self, batch: ReplicaBatch) -> Tuple[Optional[str], Any]:
        reason, kernel_class = admit(batch)
        if reason is not None:
            return reason, None
        if not kernel_class.super_batchable:
            # Kernels built from the full task context (e.g. the translation
            # kernel's embedded inner kernel) cannot be packed into a padded
            # mixed-n row space; they keep the per-cell batch path.
            return (
                FallbackReason.NOT_SUPER_BATCHABLE.render(kernel=kernel_class.__name__),
                None,
            )
        if batch.monitor_spec is not None:
            # Monitors are per-cell constructs (their arrays are sized to
            # the cell); monitored cells keep the per-cell batch path.
            return FallbackReason.MONITORED_PER_CELL.render(), None
        if batch.fingerprints:
            return FallbackReason.FINGERPRINTED_PER_CELL.render(), None
        from ..algorithms.batched import BatchUnsupported, encode_values

        try:
            for task in batch.tasks:
                encode_values(list(task.initial_values))
        except BatchUnsupported as exc:
            return str(exc), None
        return None, kernel_class


class _SuperBatchEngine:
    """One padded row space for every replica of a group of cells."""

    def __init__(self, kernel_class: Any, batches: Sequence[ReplicaBatch]) -> None:
        np = require_numpy()
        self.np = np
        self.batches = list(batches)
        self.n_max = max(batch.n for batch in self.batches)
        self.w_max = word_count(self.n_max)

        from ..adversaries.batch import vectorize_oracles

        rows = sum(batch.replicas for batch in self.batches)
        self.rows = rows
        n_max = self.n_max
        padded_values: List[List[Any]] = []
        row_n: List[int] = []
        row_cell = np.empty(rows, dtype=np.int64)
        row_replica = np.empty(rows, dtype=np.int64)
        horizon = np.empty(rows, dtype=np.int64)
        full_horizon = np.empty(rows, dtype=bool)
        scope = np.zeros((rows, n_max), dtype=bool)
        self.oracles: List[Any] = []
        row = 0
        for ci, batch in enumerate(self.batches):
            scope_processes = list(iter_bits(batch.effective_scope_mask))
            for ri, task in enumerate(batch.tasks):
                values = list(task.initial_values)
                # Padding duplicates the first value: the code table is a
                # set, so the extra columns change nothing, and padded
                # receivers never hear anyone so they never act on it.
                values.extend(values[:1] * (n_max - batch.n))
                padded_values.append(values)
                row_n.append(batch.n)
                row_cell[row] = ci
                row_replica[row] = ri
                horizon[row] = batch.max_rounds
                full_horizon[row] = batch.run_full_horizon
                scope[row, scope_processes] = True
                row += 1
            self.oracles.append(
                vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
            )
        self.kernel = kernel_class(n_max, padded_values, row_n=row_n)
        self.row_cell = row_cell
        self.row_replica = row_replica
        self.horizon = horizon
        self.full_horizon = full_horizon
        self.scope = scope
        self.row_sq = np.array(row_n, dtype=np.int64) ** 2

        # Full-length, original-indexed accounting; rows retire, these stay.
        self.rounds_executed = np.zeros(rows, dtype=np.int64)
        self.messages_sent = np.zeros(rows, dtype=np.int64)
        self.messages_delivered = np.zeros(rows, dtype=np.int64)
        self._decisions: List[Optional[Tuple[Dict[int, Any], Dict[int, int]]]] = [
            None
        ] * rows

    def run(self) -> List[List[ReplicaOutcome]]:
        np = self.np
        kernel = self.kernel
        n_max = self.n_max
        # orig_of maps the kernel's current row order to original row ids;
        # it shrinks in lockstep with every compaction.
        orig_of = np.arange(self.rows, dtype=np.int64)
        buffer = np.zeros((self.rows, n_max, self.w_max), dtype=np.uint64)
        # Round-loop scratch, reallocated with the buffer on compaction.
        heard_buffer = np.empty((self.rows, n_max, n_max), dtype=bool)
        layout = self._layout(orig_of)

        round = 0
        while True:
            # A row runs the next round while it is inside its horizon and
            # (unless running the full horizon) its scope has not decided --
            # the same between-round poll as the per-cell loops.
            scope_live = self.scope[orig_of]
            scope_done = ((kernel.decision_code >= 0) | ~scope_live).all(axis=1)
            alive = (round < self.horizon[orig_of]) & (
                self.full_horizon[orig_of] | ~scope_done
            )
            live = int(alive.sum())
            if live == 0:
                self._retire(kernel, orig_of, np.ones(len(orig_of), dtype=bool))
                break
            dead = len(orig_of) - live
            if dead >= COMPACT_MIN_DROP and live < COMPACT_THRESHOLD * len(orig_of):
                self._retire(kernel, orig_of, ~alive)
                keep = np.nonzero(alive)[0]
                kernel.compact(keep)
                orig_of = orig_of[keep]
                buffer = np.zeros((live, n_max, self.w_max), dtype=np.uint64)
                heard_buffer = np.empty((live, n_max, n_max), dtype=bool)
                alive = np.ones(live, dtype=bool)
                layout = self._layout(orig_of)

            round += 1
            for n, oracle, rows, replica_idx, cell_active in layout:
                cell_alive = alive[rows]
                if not cell_alive.any():
                    # A finished cell is not asked: its rows keep stale
                    # words, which nothing below reads (alive gates both).
                    continue
                cell_active[replica_idx] = cell_alive
                words = oracle.round_masks(round, cell_active)
                buffer[rows, :n, : words.shape[-1]] = words[replica_idx]

            heard = unpack_words(buffer, n_max, out=heard_buffer)
            kernel.step(round, heard, alive)
            updated = orig_of[alive]
            self.rounds_executed[updated] = round
            self.messages_sent[updated] += self.row_sq[updated]
            delivered = popcount_words(buffer).sum(axis=1)
            self.messages_delivered[updated] += delivered[alive]

        return self._collect()

    def _layout(self, orig_of: Any) -> List[Tuple[int, Any, slice, Any, Any]]:
        """Where each cell still present sits in the kernel's current rows.

        Rows are cell-major and compaction preserves their order, so a
        cell's rows are one contiguous slice: one ``searchsorted`` per
        compaction instead of one scan per cell per round.  Per cell: its
        n, its oracle, that slice, the replica index of each row in it, and
        the cell's ``(R_b,)`` active vector (replicas compacted away stay
        False in it for good).
        """
        np = self.np
        bounds = np.searchsorted(
            self.row_cell[orig_of], np.arange(len(self.batches) + 1)
        ).tolist()
        return [
            (
                batch.n,
                oracle,
                slice(start, stop),
                self.row_replica[orig_of[start:stop]],
                np.zeros(batch.replicas, dtype=bool),
            )
            for batch, oracle, start, stop in zip(
                self.batches, self.oracles, bounds, bounds[1:]
            )
            if stop > start
        ]

    def _retire(self, kernel: Any, orig_of: Any, done: Any) -> None:
        """Read the decisions of rows leaving the kernel (pre-compaction)."""
        for pos in self.np.nonzero(done)[0]:
            self._decisions[int(orig_of[pos])] = kernel.decisions_of(int(pos))

    def _collect(self) -> List[List[ReplicaOutcome]]:
        outcomes: List[List[ReplicaOutcome]] = []
        row = 0
        for batch in self.batches:
            rows = slice(row, row + batch.replicas)
            outcomes.append(
                assemble_outcomes(
                    batch.tasks, self._decisions[rows].__getitem__,
                    self.rounds_executed[rows], self.messages_sent[rows],
                    self.messages_delivered[rows],
                )
            )
            row += batch.replicas
        return outcomes


register_backend(SuperBatchBackend())


__all__ = ["SuperBatchBackend", "COMPACT_THRESHOLD", "COMPACT_MIN_DROP"]
