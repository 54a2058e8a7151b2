"""The ``batch`` execution backend: vectorise when possible, fall back when not.

:class:`BatchBackend` is the decision layer in front of the
:class:`~repro.batch.engine.BatchEngine`.  For every
:class:`~repro.rounds.backend.ReplicaBatch` it checks whether vectorisation
can engage:

1. numpy is available (the ``fast`` extra; honours ``REPRO_DISABLE_NUMPY``);
2. every replica runs the same algorithm class and a batched kernel is
   registered for it (:func:`repro.algorithms.batched.batch_kernel_for`);
3. every replica's initial values are encodable (totally ordered, hashable).

When any check fails the batch runs on the scalar reference backend
instead -- same outcomes, replica by replica, just without the array hot
path.  ``last_fallback_reason`` records why, for tests and for the
benchmark harness to report.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .._optional import have_numpy
from ..rounds.backend import (
    ReplicaBatch,
    ReplicaOutcome,
    ScalarBackend,
    register_backend,
)
from ..rounds.fallback import FallbackReason
from .engine import BatchEngine


class BatchBackend:
    """Vectorised lockstep execution of replica batches, with a scalar safety net."""

    name = "batch"

    def __init__(self, force_fallback: bool = False) -> None:
        self.force_fallback = force_fallback
        self._scalar = ScalarBackend()
        #: why the last ``run`` fell back to the scalar loop (None = it
        #: vectorised).  Diagnostic only; outcomes are identical either way.
        self.last_fallback_reason: Optional[str] = None

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        reason = self._fallback_reason(batch)
        engine: Optional[BatchEngine] = None
        if reason is None:
            engine, reason = self._try_build_engine(batch)
        self.last_fallback_reason = reason
        if engine is None:
            return self._scalar.run(batch)
        return engine.run()

    # ------------------------------------------------------------------ #
    # the vectorisation decision
    # ------------------------------------------------------------------ #

    def _fallback_reason(self, batch: ReplicaBatch) -> Optional[str]:
        if self.force_fallback:
            return FallbackReason.FORCED.render()
        if not have_numpy():
            return FallbackReason.NO_NUMPY.render()
        from ..algorithms.batched import batch_kernel_for

        if any(task.algorithm.n != batch.n for task in batch.tasks):
            # The scalar loop raises for mis-sized algorithms; route the
            # batch there so both backends reject the same input identically.
            return FallbackReason.SIZE_MISMATCH.render()
        algorithm_classes = {type(task.algorithm) for task in batch.tasks}
        if len(algorithm_classes) != 1:
            return FallbackReason.MIXED_ALGORITHMS.render(
                classes=sorted(c.__name__ for c in algorithm_classes)
            )
        if batch_kernel_for(batch.tasks[0].algorithm) is None:
            return FallbackReason.NO_BATCH_KERNEL.render(
                algorithm=batch.tasks[0].algorithm.__class__.__name__
            )
        return None

    def _try_build_engine(
        self, batch: ReplicaBatch
    ) -> "tuple[Optional[BatchEngine], Optional[str]]":
        from ..adversaries.batch import vectorize_oracles
        from ..algorithms.batched import BatchUnsupported, batch_kernel_for

        kernel_class = batch_kernel_for(batch.tasks[0].algorithm)
        assert kernel_class is not None
        try:
            kernel = kernel_class.from_batch(batch)
        except BatchUnsupported as exc:
            # Unencodable values are only detectable by trying; degrade.
            return None, str(exc)
        oracle = vectorize_oracles(
            [task.oracle for task in batch.tasks], batch.replicas
        )
        monitors: Optional[Any] = None
        if batch.monitor_spec is not None:
            from ..predicates.batch import BatchMonitorBank

            spec = batch.monitor_spec
            monitors = BatchMonitorBank(
                batch.n,
                batch.replicas,
                spec.predicates,
                pi0_mask=spec.pi0_mask,
                stop_after_held=spec.stop_after_held,
            )
        return BatchEngine(batch, kernel, oracle, monitors), None


register_backend(BatchBackend())


__all__ = ["BatchBackend"]
