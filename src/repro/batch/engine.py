"""The lockstep-replica batch engine: R seeded runs, one vectorised round loop.

Where the scalar :class:`~repro.rounds.engine.RoundEngine` executes one run's
round for n processes, the :class:`BatchEngine` executes one round for
``R x n`` (replica, process) pairs at once: the oracle hands over an
``(R, n, ceil(n/64))`` uint64 mask array, the engine unpacks it into the
boolean heard-matrix, the algorithm's batch kernel
(:mod:`repro.algorithms.batched`) advances every replica's ``(R, n)`` state
arrays, and the batched predicate monitors (:mod:`repro.predicates.batch`)
consume the same mask words.  Per-replica *active* flags reproduce the
scalar run loop exactly: a replica whose decide-scope has decided (or whose
stop policy fired) freezes -- its oracle stops being queried, its monitors
stop observing, its message counters stop -- while its siblings run on.

The engine is numpy-only by construction; the decision of *whether* to run
it (or to fall back to the scalar reference loop) belongs to
:class:`repro.batch.backends.BatchBackend`.
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
from ..rounds.bitmask import iter_bits
from .arrays import int_masks_from_words, popcount_words, unpack_words


class BatchEngine:
    """Run a :class:`~repro.rounds.backend.ReplicaBatch` in vectorised lockstep.

    *kernel* holds the replicas' algorithm state; *oracle* is a
    :class:`~repro.adversaries.batch.BatchOracle`; *monitors* an optional
    :class:`~repro.predicates.batch.BatchMonitorBank`.  ``run`` returns one
    :class:`~repro.rounds.backend.ReplicaOutcome` per replica, in task
    order, bit-identical to the scalar reference backend per seed.
    """

    def __init__(
        self,
        batch: ReplicaBatch,
        kernel: BatchKernel,
        oracle: Any,
        monitors: Optional[Any] = None,
    ) -> None:
        np = require_numpy()
        self.np = np
        self.batch = batch
        self.kernel = kernel
        self.oracle = oracle
        self.monitors = monitors
        self.n = batch.n
        self.replicas = batch.replicas
        if kernel.n != self.n or kernel.replicas != self.replicas:
            raise ValueError("kernel shape does not match the batch")
        if oracle.n != self.n or oracle.replicas != self.replicas:
            raise ValueError("oracle shape does not match the batch")

    def run(self) -> List[ReplicaOutcome]:
        np = self.np
        batch = self.batch
        kernel = self.kernel
        oracle = self.oracle
        monitors = self.monitors
        n = self.n
        replicas = self.replicas
        scope = list(iter_bits(batch.effective_scope_mask))

        rounds_executed = np.zeros(replicas, dtype=np.int64)
        messages_sent = np.zeros(replicas, dtype=np.int64)
        messages_delivered = np.zeros(replicas, dtype=np.int64)
        fingerprints: Optional[List[ReplicaFingerprint]] = None
        if batch.fingerprints:
            fingerprints = [ReplicaFingerprint() for _ in range(replicas)]

        # Round-loop scratch: the unpacked heard-matrix is rewritten in place
        # every round.
        heard_buffer = np.empty((replicas, n, n), dtype=bool)

        round = 0
        while round < batch.max_rounds:
            # The same between-round poll as the scalar loop: a replica that
            # has decided its scope (or whose stop policy fired) does not
            # start the next round.
            active = np.ones(replicas, dtype=bool)
            if monitors is not None:
                active &= ~monitors.stop_array
            if not batch.run_full_horizon:
                active &= ~kernel.scope_all_decided(scope)
            if not active.any():
                break
            round += 1
            words = oracle.round_masks(round, active)
            heard = unpack_words(words, n, out=heard_buffer)
            decided_before = kernel.decided() if fingerprints is not None else None
            kernel.step(round, heard, active)
            rounds_executed[active] = round
            messages_sent[active] += n * n
            popc = popcount_words(words)
            delivered = popc.sum(axis=1)
            messages_delivered[active] += delivered[active]
            if monitors is not None:
                monitors.observe_round(round, words, heard, popc, active)
            if fingerprints is not None:
                for r in range(replicas):
                    if not active[r]:
                        continue
                    fingerprints[r].observe_round(
                        round,
                        int_masks_from_words(words[r]),
                        kernel.estimate_reprs(r),
                        kernel.newly_decided(r, decided_before),
                    )

        return assemble_outcomes(
            batch.tasks, kernel.decisions_of,
            rounds_executed, messages_sent, messages_delivered,
            monitors, fingerprints,
        )


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


__all__ = ["BatchEngine", "assemble_outcomes"]
