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

The inner kernel is stepped with the *outer* round number: scalar
``decision_rounds`` are the outer rounds at which the backend first
observes a non-``None`` decision (macro-round boundaries), and
``BatchOneThirdRule`` uses its round argument only to record decisions.
Only an exact :class:`~repro.algorithms.OneThirdRule` inner is accepted --
its transition ignores the round number, whereas the phase-structured
algorithms (UniformVoting, LastVoting) would be stepped with the wrong
phase.  OneThirdRule's tie-breaks provably cannot observe the scalar
boundary's frozenset iteration order (an adopted-with-tie top count would
need ``top > n/3`` and ``top <= n//3`` at once; a decided value's count
exceeds ``2n/3``, hence is unique), so the kernel is bit-identical to the
scalar reference per seed -- pinned by the fingerprint-prefix tests.

The kernel opts out of super-batching (``super_batchable = False``): the
super backend constructs kernels directly with a padded mixed-n row space,
bypassing :meth:`from_batch`, and the translation parameters live on the
task algorithms.  That is a fact about *construction* only: a translation
cell runs the one round loop as a row space of its own (the ``batch``
backend's one-cell configuration), row compaction included.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from .._optional import require_numpy
from ..algorithms.batched import (
    BatchKernel,
    BatchOneThirdRule,
    BatchUnsupported,
    register_batch_kernel,
)
from ..algorithms.one_third_rule import OneThirdRule
from .translation import KernelToUniformTranslation


class BatchTranslationKernel(BatchKernel):
    """R lockstep replicas of Algorithm 4 over a OneThirdRule inner."""

    algorithm_class = KernelToUniformTranslation

    super_batchable = False

    @classmethod
    def from_batch(cls, batch: Any) -> "BatchTranslationKernel":
        first = batch.tasks[0].algorithm
        if type(first) is not KernelToUniformTranslation:
            raise BatchUnsupported(
                f"{type(first).__name__} is not the translation algorithm"
            )
        for task in batch.tasks:
            algorithm = task.algorithm
            if (
                type(algorithm) is not KernelToUniformTranslation
                or algorithm.f != first.f
                or algorithm.n != first.n
            ):
                raise BatchUnsupported(
                    "translation replicas must share one (n, f) configuration"
                )
            if type(algorithm.inner) is not OneThirdRule:
                raise BatchUnsupported(
                    f"inner {type(algorithm.inner).__name__} does not vectorise: "
                    "the translation steps the inner kernel with the outer round "
                    "number, which only a round-oblivious transition tolerates"
                )
        return cls(
            batch.n,
            [list(task.initial_values) for task in batch.tasks],
            f=first.f,
        )

    def __init__(
        self,
        n: int,
        initial_values: Sequence[Sequence[Any]],
        f: int = 0,
        row_n: Optional[Sequence[int]] = None,
    ) -> None:
        if row_n is not None:
            raise BatchUnsupported(
                "the translation kernel has no mixed-n row mode"
            )
        np = require_numpy()
        if n <= 2 * f:
            raise ValueError(f"the translation requires n > 2f, got n={n}, f={f}")
        self.np = np
        self.n = n
        self.f = f
        self.rounds_per_macro = f + 1
        self.row_n = None
        #: the embedded upper layer: owns values, estimates and decisions.
        self._inner = BatchOneThirdRule(n, initial_values)
        self.replicas = self._inner.replicas
        self.tables = self._inner.tables
        #: (R, n, n) bool -- listen[r, p, q]: p still listens to q.
        self.listen = np.ones((self.replicas, n, n), dtype=bool)
        #: (R, n, n) bool -- known[r, p, k]: p knows k's macro-round message.
        eye = np.eye(n, dtype=bool)
        self._eye = eye[None, :, :]
        self.known = np.broadcast_to(eye, (self.replicas, n, n)).copy()
        #: the (R, n, n) NewHO matrix of the last boundary round stepped
        #: (rows of replicas inactive at that boundary hold garbage).
        self.last_new_ho: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # the lockstep step
    # ------------------------------------------------------------------ #

    def step(self, round: int, heard: Any, active: Any) -> None:
        np = self.np
        act3 = active[:, None, None]
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
        if round % self.rounds_per_macro != 0:
            self.known = np.where(act3, self.known | (counts > 0.5), self.known)
            self.listen = np.where(act3, listen_new, self.listen)
            return
        new_ho = counts >= np.float32(self.n - self.f)
        self._inner.step(round, new_ho, active)
        self.last_new_ho = new_ho
        self.listen = np.where(act3, True, self.listen)
        self.known = np.where(act3, self._eye, self.known)

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
        self.listen = self.listen[keep]
        self.known = self.known[keep]
        self._inner.compact(keep)
        self.replicas = self._inner.replicas
        self.tables = self._inner.tables
        self.last_new_ho = None


register_batch_kernel(KernelToUniformTranslation, BatchTranslationKernel)


__all__ = ["BatchTranslationKernel"]
