"""The fused multi-round loop: K rounds per compiled call.

Where :class:`repro.batch.engine.BatchEngine` makes one Python round-trip
per round (oracle query, unpack, kernel ``step``, accounting),
:class:`CompiledEngine` precomputes a *chunk* of K rounds of oracle mask
words into one ``(K, R, n, W)`` uint64 buffer and hands the whole chunk to
a single compiled call (:mod:`repro.compiled.kernels`), which runs the
oracle-draw -> heard-mask-build -> kernel-step -> decision-retire cycle
for every replica with no interpreter dispatch in between.

Chunk precompute is sound because the backend only admits *pure* batch
oracles -- broadcast wrappers over deterministic scalar oracles and the
counter-based duals, whose ``round_masks`` is a function of the round
number alone (recurrence duals advance monotonically, which chunked
forward queries respect).  The stateful :class:`PerReplicaBatchOracle`
loop, whose query order must replay the scalar runs exactly, is rejected
upstream (``OPAQUE_COMPILED_ORACLE``).  A chunk may query rounds the
scalar path never reaches (replicas that decide mid-chunk); if an oracle
raises mid-precompute the chunk truncates, and the error surfaces only if
replicas are still active when the failing round is reached -- exactly
when the scalar reference would have raised it.

The between-round decide-scope poll lives *inside* the compiled cores
(replicas retire the moment their scope decided, mid-chunk); the engine
additionally polls before each chunk so a batch that starts decided (for
example an empty decide scope) never queries its oracle at all, matching
the scalar loop.
"""

from __future__ import annotations

from typing import Any, List

from .._optional import require_numpy
from ..algorithms.batched import BatchKernel
from ..batch.engine import assemble_outcomes
from ..rounds.backend import ReplicaBatch, ReplicaOutcome
from ..rounds.bitmask import WORD_BITS, iter_bits, word_count
from .kernels import CompiledKernel

#: rounds per compiled call after the first chunk.
CHUNK_ROUNDS = 64
#: a smaller first chunk: fault-free cells decide within a few rounds, and
#: precomputed masks past the decision are wasted oracle work.
FIRST_CHUNK_ROUNDS = 8


class CompiledEngine:
    """Run a :class:`ReplicaBatch` through the fused compiled round loop.

    *kernel* is the numpy batch kernel holding the replicas' state arrays
    (the compiled cores mutate them in place, so the kernel's decode
    helpers assemble the outcomes); *spec* is its registered
    :class:`~repro.compiled.kernels.CompiledKernel`; *compiled* selects
    jitted cores (False = the backend's interpreted test mode).
    """

    def __init__(
        self,
        batch: ReplicaBatch,
        kernel: BatchKernel,
        oracle: Any,
        spec: CompiledKernel,
        compiled: bool,
    ) -> None:
        np = require_numpy()
        self.np = np
        self.batch = batch
        self.kernel = kernel
        self.oracle = oracle
        self.spec = spec
        self.compiled = compiled
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
        n = self.n
        replicas = self.replicas
        words_per_row = word_count(n)
        scope_list = list(iter_bits(batch.effective_scope_mask))
        scope = np.array(scope_list, dtype=np.int64)
        scope_rows = np.zeros((replicas, n), dtype=bool)
        scope_rows[:, scope_list] = True
        # Heard-bit lookup per sender: its word index and its bit's mask.
        # Precomputing both keeps runtime shifts (whose mixed-width
        # semantics vary) out of the cores entirely.
        senders = np.arange(n, dtype=np.uint64)
        word_of = np.arange(n, dtype=np.int64) // WORD_BITS
        bitmask = np.uint64(1) << (senders % np.uint64(WORD_BITS))

        active = np.ones(replicas, dtype=bool)
        rounds_executed = np.zeros(replicas, dtype=np.int64)
        messages_sent = np.zeros(replicas, dtype=np.int64)
        messages_delivered = np.zeros(replicas, dtype=np.int64)
        full_horizon = bool(batch.run_full_horizon)

        round = 0
        chunk = FIRST_CHUNK_ROUNDS
        while round < batch.max_rounds:
            if not full_horizon:
                active &= ~kernel.scope_all_decided(scope_rows)
            if not active.any():
                break
            k_max = min(chunk, batch.max_rounds - round)
            chunk = CHUNK_ROUNDS
            words = np.empty((k_max, replicas, n, words_per_row), dtype=np.uint64)
            filled = 0
            error = None
            for k in range(k_max):
                try:
                    words[k] = self.oracle.round_masks(round + k + 1, active)
                except Exception as exc:  # truncate; re-raised iff reached
                    error = exc
                    break
                filled += 1
            if filled == 0:
                # Replicas are active and the next round's masks are
                # unobtainable: the scalar reference would raise here too.
                raise error
            self.spec.runner(
                kernel, self.compiled, words[:filled], word_of, bitmask,
                round, full_horizon, scope, active,
                rounds_executed, messages_sent, messages_delivered,
            )
            round += filled

        return assemble_outcomes(
            batch.tasks, kernel.decisions_of,
            rounds_executed, messages_sent, messages_delivered,
        )


__all__ = ["CHUNK_ROUNDS", "FIRST_CHUNK_ROUNDS", "CompiledEngine"]
