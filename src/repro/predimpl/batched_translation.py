"""The batched dual of Algorithm 4: vectorised kernel->uniform translation.

:class:`BatchTranslationKernel` advances R lockstep replicas of
:class:`~repro.predimpl.translation.KernelToUniformTranslation` (inner
algorithm: :class:`~repro.algorithms.OneThirdRule`) one round at a time, as
the round-level :class:`~repro.batch.engine.BatchEngine` expects.  The
per-process gossip state vectorises exactly:

* ``listen`` -- the processes still listened to this macro-round -- is an
  ``(R, n, n)`` boolean matrix (receiver-major), intersected with the
  round's heard-matrix every round;
* ``known`` -- which upper-layer macro-round messages each process knows --
  reduces to an ``(R, n, n)`` boolean *presence* matrix: within one
  macro-round every circulating payload for process ``k`` equals
  ``inner.send(macro, k, state_k)`` (payloads originate only from ``k``'s
  own boundary reset and gossip merely copies them), so merge order and the
  payload values themselves carry no extra information;
* the per-round gossip merge and the boundary report counts are one batched
  matmul: ``counts[r, p, k] = |{q in listen : k in known_q}|`` over the
  *start-of-round* ``known`` (messages carry pre-transition state);
* ``NewHO`` at a macro-round boundary is the popcount threshold of
  Theorem 8 -- ``counts >= n - f`` ("reported by at least n - f of the
  listened-to processes") -- and feeds the embedded
  :class:`~repro.algorithms.batched.BatchOneThirdRule` directly as its
  heard-matrix: a member's unique payload is its inner estimate, which the
  inner kernel already holds in its own ``x`` array.

The translation parameters are row vectors, like ``row_n``: ``f``, the
``NewHO`` threshold ``n_row - f_row`` and ``rounds_per_macro`` are ``(R,)``
arrays, so rows of different cells -- different n, different f -- share
one row space, and a row is at its macro-round boundary when
``round % rounds_per_macro[row] == 0``.  Padding is invisible: a padded
sender is never heard, so its ``known`` bit never reaches a real row, and a
padded receiver hears nobody, so it counts 0 reports, below any threshold
(``n_row > 2 f_row`` makes every threshold at least 1).

The inner kernel runs in the same ``row_n`` mode and is stepped with the
*outer* round number, only on rounds where some row is at its boundary,
with those rows active: scalar ``decision_rounds`` are the outer rounds at
which the backend first observes a non-``None`` decision (macro-round
boundaries), and ``BatchOneThirdRule`` uses its round argument only to
record decisions.  Only an exact :class:`~repro.algorithms.OneThirdRule`
inner is accepted (``INNER_NOT_ROUND_OBLIVIOUS`` otherwise) -- its
transition ignores the round number, whereas the phase-structured
algorithms (UniformVoting, LastVoting) would be stepped with the wrong
phase.  OneThirdRule's tie-breaks provably cannot observe the scalar
boundary's frozenset iteration order (an adopted-with-tie top count would
need ``top > n/3`` and ``top <= n//3`` at once; a decided value's count
exceeds ``2n/3``, hence is unique), so the kernel is bit-identical to the
scalar reference per seed -- pinned by the fingerprint-prefix tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.batched import (
    BatchKernel,
    BatchOneThirdRule,
    BatchUnsupported,
    register_batch_kernel,
)
from ..algorithms.one_third_rule import OneThirdRule
from ..rounds.fallback import FallbackReason
from .translation import KernelToUniformTranslation


class BatchTranslationKernel(BatchKernel):
    """R lockstep replicas of Algorithm 4 over a OneThirdRule inner."""

    algorithm_class = KernelToUniformTranslation

    @classmethod
    def _cell_parameters(cls, batch: Any) -> Dict[str, List[Any]]:
        for task in batch.tasks:
            inner = task.algorithm.inner
            if type(inner) is not OneThirdRule:
                raise BatchUnsupported(
                    FallbackReason.INNER_NOT_ROUND_OBLIVIOUS.render(inner=type(inner).__name__)
                )
        return {"f": [task.algorithm.f for task in batch.tasks]}

    def __init__(
        self,
        n: int,
        encoded: Sequence[Tuple[List[Any], Sequence[int]]],
        row_n: Optional[Sequence[int]] = None,
        *,
        f: Sequence[int],
    ) -> None:
        """*f* holds each row's translation parameter (``n_row > 2 f``)."""
        self.n = n
        #: the embedded upper layer: owns values, estimates and decisions.
        self._inner = BatchOneThirdRule(n, encoded, row_n)
        self.replicas = self._inner.replicas
        self.tables = self._inner.tables
        self.row_n = self._inner.row_n
        #: (R,) int32 -- each row's f and macro-round length.
        self.f = np.array(f, dtype=np.int32)
        self.rounds_per_macro = self.f + 1
        #: (R,) float32 -- each row's NewHO threshold n_row - f, in the
        #: dtype of the report counts it is compared with.
        self.threshold = ((n if row_n is None else self.row_n) - self.f).astype(np.float32)
        #: (R, n, n) bool -- listen[r, p, q]: p still listens to q.
        self.listen = np.ones((self.replicas, n, n), dtype=bool)
        #: (R, n, n) bool -- known[r, p, k]: p knows k's macro-round message.
        eye = np.eye(n, dtype=bool)
        self._eye = eye[None, :, :]
        self.known = np.broadcast_to(eye, (self.replicas, n, n)).copy()
        #: the (R, n, n) NewHO matrix of the last round some row was at its
        #: boundary (rows not at it, or inactive then, hold garbage).
        self.last_new_ho: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # the lockstep step
    # ------------------------------------------------------------------ #

    def step(self, round: int, heard: Any, active: Any) -> None:
        shape = (self.replicas, self.n, self.n)
        listen_new = np.logical_and(
            self.listen, heard, out=self._scratch("tr_listen_new", shape, bool)
        )
        # counts[r, p, k] = |{q in listen'(p) : k in known_q}| over the
        # start-of-round known (messages carry pre-transition state); exact
        # in float32 for any n below 2^24.
        listen_f = self._scratch("tr_listen_f32", shape, np.float32)
        np.copyto(listen_f, listen_new)
        known_f = self._scratch("tr_known_f32", shape, np.float32)
        np.copyto(known_f, self.known)
        counts = np.matmul(
            listen_f, known_f, out=self._scratch("tr_counts", shape, np.float32)
        )
        boundary = round % self.rounds_per_macro == 0
        if not boundary.all():
            gossip = (active & ~boundary)[:, None, None]
            self.known = np.where(gossip, self.known | (counts > 0.5), self.known)
            self.listen = np.where(gossip, listen_new, self.listen)
        if not boundary.any():
            return
        at_boundary = active & boundary
        new_ho = counts >= self.threshold[:, None, None]
        self._inner.step(round, new_ho, at_boundary)
        self.last_new_ho = new_ho
        reset = at_boundary[:, None, None]
        self.listen = np.where(reset, True, self.listen)
        self.known = np.where(reset, self._eye, self.known)

    # ------------------------------------------------------------------ #
    # engine-facing queries: decisions live in the inner kernel; the
    # translation state is opaque to the scalar fingerprint (TranslationState
    # has no ``x`` attribute, so every scalar estimate repr is "None").
    # ------------------------------------------------------------------ #

    def decided(self) -> Any:
        return self._inner.decided()

    def scope_all_decided(self, scope: Any) -> Any:
        return self._inner.scope_all_decided(scope)

    def decisions_of(self, replica: int):
        return self._inner.decisions_of(replica)

    def estimate_reprs(self, replica: int) -> List[str]:
        return ["None"] * self.n

    def newly_decided(self, replica: int, decided_before: Any):
        return self._inner.newly_decided(replica, decided_before)

    def compact(self, keep: Any) -> None:
        for name in ("listen", "known", "f", "rounds_per_macro", "threshold"):
            setattr(self, name, getattr(self, name)[keep])
        self._inner.compact(keep)
        self.replicas = self._inner.replicas
        self.tables = self._inner.tables
        self.row_n = self._inner.row_n
        self.last_new_ho = None


register_batch_kernel(KernelToUniformTranslation, BatchTranslationKernel)


__all__ = ["BatchTranslationKernel"]
