"""The numpy round loop: every replica of every cell, one lockstep round at a time.

Where the scalar :class:`~repro.rounds.engine.RoundEngine` executes one run's
round for n processes, the :class:`BatchEngine` executes one round for every
(replica, process) pair of a *row space*: the replicas of one or more sweep
cells, cell-major, each row simulating its own cell's n processes inside a
kernel (:mod:`repro.algorithms.batched`) that is ``n_max`` wide.

* Every per-row quantity -- n, horizon, decide scope, full-horizon flag --
  is a row vector, so heterogeneous cells coexist.
* Heard-of sets live in one ``(rows, n_max, ceil(n_max/64))`` uint64 word
  buffer; each cell's oracle hands over its own ``(R_b, n_b, W_b)`` block,
  scattered into the top-left corner of the cell's rows.
* A row whose scope has decided (or whose horizon ran out, or whose stop
  policy fired) freezes -- its oracle stops being asked, its counters stop
  -- while its siblings run on, exactly as the scalar run loop ends.  Once
  occupancy drops below :data:`COMPACT_THRESHOLD` (with at least
  :data:`COMPACT_MIN_DROP` rows to drop) the finished rows are retired and
  the kernel compacted.
* Observers are a slot of the loop, per cell: a monitored or fingerprinted
  cell is shown its own corner of the round after the kernel stepped (the
  monitors of :mod:`repro.predicates.batch` consume the same mask words),
  and its rows are *pinned* -- never compacted away -- so the observers'
  ``(R_b,)`` state stays aligned with the rows for the whole run.

The ``batch`` backend runs this loop with one cell (``n_max = n``, nothing
padded), the ``super`` backend with a whole grid; the loop cannot tell them
apart.  It is numpy-only by construction; whether a batch gets here at all
is decided by :func:`repro.batch.backends.admit`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._optional import require_numpy
from ..algorithms.batched import BatchKernel
from ..rounds.backend import (
    ReplicaBatch,
    ReplicaFingerprint,
    ReplicaOutcome,
    ReplicaTask,
    finish_fingerprint,
)
from ..rounds.bitmask import iter_bits, word_count
from .arrays import int_masks_from_words, popcount_words, unpack_words

#: Compact the kernel when the rows kept drop below this fraction of its rows.
COMPACT_THRESHOLD = 0.5
#: ... but only when at least this many rows would be dropped (anti-thrash).
COMPACT_MIN_DROP = 32


class Cell:
    """One sweep cell of a row space: its batch, its oracle, its observers.

    *oracle* is the batch's vectorised :class:`~repro.adversaries.batch.
    BatchOracle`.  The observers -- a :class:`~repro.predicates.batch.
    BatchMonitorBank`, one :class:`~repro.rounds.backend.ReplicaFingerprint`
    per replica -- are built here, from what the batch asks for.
    """

    def __init__(self, batch: ReplicaBatch, oracle: Any) -> None:
        if oracle.n != batch.n or oracle.replicas != batch.replicas:
            raise ValueError("oracle shape does not match the batch")
        self.batch = batch
        self.oracle = oracle
        self.monitors: Optional[Any] = None
        if batch.monitor_spec is not None:
            from ..predicates.batch import BatchMonitorBank

            spec = batch.monitor_spec
            self.monitors = BatchMonitorBank(
                batch.n,
                batch.replicas,
                spec.predicates,
                pi0_mask=spec.pi0_mask,
                stop_after_held=spec.stop_after_held,
            )
        self.fingerprints: Optional[List[ReplicaFingerprint]] = None
        if batch.fingerprints:
            self.fingerprints = [ReplicaFingerprint() for _ in range(batch.replicas)]
        self.observed = self.monitors is not None or self.fingerprints is not None


class BatchEngine:
    """Run the cells of one row space in vectorised lockstep.

    *kernel* holds the algorithm state of every row: ``sum(R_b)`` rows,
    cell-major, as wide as the widest cell (built with ``row_n`` padding
    when the cells differ in n).  ``run`` returns one outcome list per cell,
    each in task order, bit-identical to the scalar reference per seed.
    """

    def __init__(self, kernel: BatchKernel, cells: Sequence[Cell]) -> None:
        np = require_numpy()
        self.np = np
        self.kernel = kernel
        self.cells = list(cells)
        batches = [cell.batch for cell in self.cells]
        sizes = [batch.replicas for batch in batches]
        starts = np.cumsum([0, *sizes]).tolist()
        self.rows = starts[-1]
        if kernel.replicas != self.rows or any(batch.n > kernel.n for batch in batches):
            raise ValueError("kernel shape does not match the batch")
        #: each cell's rows in the original, never-compacted row order.
        self.spans = [slice(start, stop) for start, stop in zip(starts, starts[1:])]
        self.row_cell = np.repeat(np.arange(len(batches)), sizes)
        self.row_replica = np.concatenate([np.arange(size) for size in sizes])
        self.horizon = np.repeat([batch.max_rounds for batch in batches], sizes)
        self.full_horizon = np.repeat([batch.run_full_horizon for batch in batches], sizes)
        self.row_sq = np.repeat([batch.n**2 for batch in batches], sizes)
        self.pinned = np.repeat([cell.observed for cell in self.cells], sizes)
        self.scope = np.zeros((self.rows, kernel.n), dtype=bool)
        for batch, span in zip(batches, self.spans):
            self.scope[span, list(iter_bits(batch.effective_scope_mask))] = True

        # Full-length, original-indexed accounting; rows retire, these stay.
        self.rounds_executed = np.zeros(self.rows, dtype=np.int64)
        self.messages_sent = np.zeros(self.rows, dtype=np.int64)
        self.messages_delivered = np.zeros(self.rows, dtype=np.int64)
        self._decisions: List[Optional[Tuple[Dict[int, Any], Dict[int, int]]]] = [
            None
        ] * self.rows

    def run(self) -> List[List[ReplicaOutcome]]:
        np = self.np
        kernel = self.kernel
        n_max = kernel.n
        w_max = word_count(n_max)
        # orig_of maps the kernel's current row order to original row ids;
        # it shrinks in lockstep with every compaction.
        orig_of = np.arange(self.rows, dtype=np.int64)
        buffer = np.zeros((self.rows, n_max, w_max), dtype=np.uint64)
        # Round-loop scratch, reallocated with the buffer on compaction.
        heard_buffer = np.empty((self.rows, n_max, n_max), dtype=bool)
        layout = self._layout(orig_of)

        round = 0
        while True:
            # The same between-round poll as the scalar loop: a row starts
            # the next round while it is inside its horizon, its stop policy
            # has not fired and (unless running the full horizon) its scope
            # has not decided.
            alive = (round < self.horizon[orig_of]) & (
                self.full_horizon[orig_of] | ~kernel.scope_all_decided(self.scope[orig_of])
            )
            for cell, rows, _, _ in layout:
                if cell.monitors is not None:
                    alive[rows] &= ~cell.monitors.stop_array  # pinned: all R_b rows
            if not alive.any():
                self._retire(orig_of, ~alive)
                break
            # Finished rows leave; pinned ones stay for their observers' sake.
            drop = ~alive & ~self.pinned[orig_of]
            dropped = int(drop.sum())
            kept = len(orig_of) - dropped
            if dropped >= COMPACT_MIN_DROP and kept < COMPACT_THRESHOLD * len(orig_of):
                self._retire(orig_of, drop)
                keep = np.flatnonzero(~drop)
                kernel.compact(keep)
                orig_of = orig_of[keep]
                alive = alive[keep]
                buffer = np.zeros((kept, n_max, w_max), dtype=np.uint64)
                heard_buffer = np.empty((kept, n_max, n_max), dtype=bool)
                layout = self._layout(orig_of)

            round += 1
            watched = []
            for cell, rows, replica_idx, cell_active in layout:
                cell_alive = alive[rows]
                if not cell_alive.any():
                    # A finished cell is not asked: its rows keep stale
                    # words, which nothing below reads (alive gates both).
                    continue
                cell_active[replica_idx] = cell_alive
                words = cell.oracle.round_masks(round, cell_active)
                buffer[rows, : cell.batch.n, : words.shape[-1]] = words[replica_idx]
                if cell.observed:
                    watched.append((cell, rows, words, cell_active))

            heard = unpack_words(buffer, n_max, out=heard_buffer)
            decided_before = kernel.decided() if watched else None
            kernel.step(round, heard, alive)
            updated = orig_of[alive]
            self.rounds_executed[updated] = round
            self.messages_sent[updated] += self.row_sq[updated]
            popc = popcount_words(buffer)
            self.messages_delivered[updated] += popc.sum(axis=1)[alive]
            for observed in watched:
                self._observe(round, observed, heard, popc, decided_before)
            # Only the observers need the (rows, n_max) popcount whole; it
            # must not sit beside the next round's unpack.
            del popc

        return [
            assemble_outcomes(
                cell.batch.tasks, self._decisions[span].__getitem__,
                self.rounds_executed[span], self.messages_sent[span],
                self.messages_delivered[span], cell.monitors, cell.fingerprints,
            )
            for cell, span in zip(self.cells, self.spans)
        ]

    def _layout(self, orig_of: Any) -> List[Tuple[Cell, slice, Any, Any]]:
        """Where each cell still present sits in the kernel's current rows.

        Rows are cell-major and compaction preserves their order, so a
        cell's rows are one contiguous slice: one ``searchsorted`` per
        compaction instead of one scan per cell per round.  Per cell: the
        cell, that slice, the replica index of each row in it, and the
        cell's ``(R_b,)`` active vector (replicas compacted away stay
        False in it for good).
        """
        np = self.np
        bounds = np.searchsorted(
            self.row_cell[orig_of], np.arange(len(self.cells) + 1)
        ).tolist()
        return [
            (
                cell,
                slice(start, stop),
                self.row_replica[orig_of[start:stop]],
                np.zeros(cell.batch.replicas, dtype=bool),
            )
            for cell, start, stop in zip(self.cells, bounds, bounds[1:])
            if stop > start
        ]

    def _observe(
        self, round: int, observed: Tuple[Any, ...], heard: Any, popc: Any, decided_before: Any
    ) -> None:
        """Show an observed cell its own corner of the round just stepped.

        The cell's rows are pinned, so row ``rows.start + r`` is replica r:
        *words* are the oracle's own ``(R_b, n_b, W_b)`` block, the heard
        matrix and popcounts are cut to ``n_b``, *active* is ``(R_b,)``.
        """
        cell, rows, words, active = observed
        n = cell.batch.n
        if cell.monitors is not None:
            cell.monitors.observe_round(
                round, words, heard[rows, :n, :n], popc[rows, :n], active
            )
        if cell.fingerprints is not None:
            kernel = self.kernel
            for r in self.np.flatnonzero(active).tolist():
                pos = rows.start + r
                cell.fingerprints[r].observe_round(
                    round,
                    int_masks_from_words(words[r]),
                    # A padded row space reports n_max estimates per row.
                    kernel.estimate_reprs(pos)[:n],
                    kernel.newly_decided(pos, decided_before),
                )

    def _retire(self, orig_of: Any, done: Any) -> None:
        """Read the decisions of rows leaving the kernel (pre-compaction)."""
        for pos in self.np.flatnonzero(done).tolist():
            self._decisions[int(orig_of[pos])] = self.kernel.decisions_of(pos)


def assemble_outcomes(
    tasks: Sequence[ReplicaTask],
    decisions_of: Callable[[int], Tuple[Dict[int, Any], Dict[int, int]]],
    rounds_executed: Any,
    messages_sent: Any,
    messages_delivered: Any,
    monitors: Optional[Any] = None,
    fingerprints: Optional[List[ReplicaFingerprint]] = None,
) -> List[ReplicaOutcome]:
    """What every array round loop ends in: one outcome per task, in task order.

    *decisions_of* maps a replica index to its ``(decisions,
    decision_rounds)`` tables, and the three accounting arrays are indexed
    the same way.  *monitors* (a ``BatchMonitorBank``) and *fingerprints*
    are the per-cell observers only :class:`BatchEngine` carries.
    """
    outcomes: List[ReplicaOutcome] = []
    for r, task in enumerate(tasks):
        decisions, decision_rounds = decisions_of(r)
        executed = int(rounds_executed[r])
        sent = int(messages_sent[r])
        delivered = int(messages_delivered[r])
        outcomes.append(
            ReplicaOutcome(
                seed=task.seed,
                decisions=decisions,
                decision_rounds=decision_rounds,
                rounds_executed=executed,
                messages_sent=sent,
                messages_delivered=delivered,
                stopped_early=bool(monitors.stop_array[r]) if monitors is not None else False,
                predicate_reports=(
                    monitors.reports_json_of(r) if monitors is not None else None
                ),
                fingerprint=finish_fingerprint(
                    fingerprints[r] if fingerprints is not None else None,
                    decisions, decision_rounds, executed, sent, delivered,
                ),
            )
        )
    return outcomes


__all__ = ["BatchEngine", "Cell", "COMPACT_THRESHOLD", "COMPACT_MIN_DROP", "assemble_outcomes"]
