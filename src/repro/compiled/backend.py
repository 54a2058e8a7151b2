"""The ``compiled`` execution backend: JIT when possible, degrade when not.

:class:`CompiledBackend` is the decision layer in front of the
:class:`~repro.compiled.engine.CompiledEngine`, mirroring
:class:`repro.batch.backends.BatchBackend` one tier up.  For every
:class:`~repro.rounds.backend.ReplicaBatch` it checks whether the fused
compiled loop can engage:

1. numpy and numba are available (the ``fast``/``compiled`` extras;
   honours ``REPRO_DISABLE_NUMPY`` / ``REPRO_DISABLE_NUMBA``);
2. every replica runs the same algorithm class, a batched kernel is
   registered for it, *and* that kernel has a compiled dual
   (:func:`repro.compiled.kernels.compiled_kernel_for`);
3. the cell is neither monitored nor fingerprinted (both need per-round
   Python observation, which is exactly the dispatch the fused loop
   removes -- they keep the numpy batch path, whose monitors and
   fingerprints are already bit-identical to scalar);
4. the batch's oracles vectorise without the stateful per-replica query
   loop (chunked mask precompute needs pure, order-free oracles).

When any check fails the batch runs on the numpy
:class:`~repro.batch.backends.BatchBackend` instead -- which itself
degrades further to the scalar reference when *its* checks fail -- so
outcomes are identical at every tier, replica by replica.
``last_fallback_reason`` records why (None = the compiled loop ran); the
chained batch backend's own ``last_fallback_reason`` records the second
hop when the degradation went all the way to scalar.

``interpreted=True`` runs the exact compiled-core code objects under
CPython instead of numba -- the test mode that lets a numba-free
environment pin the cores' bit-identity.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .._optional import have_numba, have_numpy
from ..batch.backends import BatchBackend
from ..rounds.backend import ReplicaBatch, ReplicaOutcome, register_backend
from ..rounds.fallback import FallbackReason
from .engine import CompiledEngine
from .kernels import compiled_kernel_for


def _needs_replica_loop(oracle: Any) -> bool:
    """Whether a vectorised oracle resolves to the stateful query loop."""
    from ..adversaries.batch import IntersectBatchOracle, PerReplicaBatchOracle

    if isinstance(oracle, PerReplicaBatchOracle):
        return True
    if isinstance(oracle, IntersectBatchOracle):
        return any(
            isinstance(component, PerReplicaBatchOracle)
            for component in oracle.components
        )
    return False


class CompiledBackend:
    """Fused compiled execution of replica batches, with a numpy safety net."""

    name = "compiled"

    def __init__(
        self, force_fallback: bool = False, interpreted: bool = False
    ) -> None:
        self.force_fallback = force_fallback
        #: run the cores under CPython even without numba (test mode).
        self.interpreted = interpreted
        self._batch = BatchBackend()
        #: why the last ``run`` degraded to the numpy batch path (None =
        #: the fused loop ran).  Diagnostic only; outcomes are identical.
        self.last_fallback_reason: Optional[str] = None

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        reason = self._fallback_reason(batch)
        engine: Optional[CompiledEngine] = None
        if reason is None:
            engine, reason = self._try_build_engine(batch)
        self.last_fallback_reason = reason
        if engine is None:
            return self._batch.run(batch)
        return engine.run()

    # ------------------------------------------------------------------ #
    # the compilation decision
    # ------------------------------------------------------------------ #

    def _fallback_reason(self, batch: ReplicaBatch) -> Optional[str]:
        if self.force_fallback:
            return FallbackReason.FORCED.render()
        if not have_numpy():
            return FallbackReason.NO_NUMPY.render()
        if not self.interpreted and not have_numba():
            return FallbackReason.NO_NUMBA.render()
        from ..algorithms.batched import batch_kernel_for

        if any(task.algorithm.n != batch.n for task in batch.tasks):
            return FallbackReason.SIZE_MISMATCH.render()
        algorithm_classes = {type(task.algorithm) for task in batch.tasks}
        if len(algorithm_classes) != 1:
            return FallbackReason.MIXED_ALGORITHMS.render(
                classes=sorted(c.__name__ for c in algorithm_classes)
            )
        kernel_class = batch_kernel_for(batch.tasks[0].algorithm)
        if kernel_class is None:
            return FallbackReason.NO_BATCH_KERNEL.render(
                algorithm=batch.tasks[0].algorithm.__class__.__name__
            )
        if compiled_kernel_for(kernel_class) is None:
            return FallbackReason.NO_COMPILED_KERNEL.render(
                kernel=kernel_class.__name__
            )
        if batch.monitor_spec is not None:
            return FallbackReason.MONITORED_COMPILED_CELL.render()
        if batch.fingerprints:
            return FallbackReason.FINGERPRINTED_COMPILED_CELL.render()
        return None

    def _try_build_engine(
        self, batch: ReplicaBatch
    ) -> Tuple[Optional[CompiledEngine], Optional[str]]:
        from ..adversaries.batch import vectorize_oracles
        from ..algorithms.batched import BatchUnsupported, batch_kernel_for

        kernel_class = batch_kernel_for(batch.tasks[0].algorithm)
        assert kernel_class is not None
        spec = compiled_kernel_for(kernel_class)
        assert spec is not None
        try:
            kernel = kernel_class.from_batch(batch)
        except BatchUnsupported as exc:
            # Unencodable values are only detectable by trying; degrade.
            return None, str(exc)
        oracle = vectorize_oracles(
            [task.oracle for task in batch.tasks], batch.replicas
        )
        if _needs_replica_loop(oracle):
            return None, FallbackReason.OPAQUE_COMPILED_ORACLE.render()
        compiled = have_numba() and not self.interpreted
        return CompiledEngine(batch, kernel, oracle, spec, compiled), None


register_backend(CompiledBackend())


__all__ = ["CompiledBackend"]
