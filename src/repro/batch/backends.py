"""The ``batch`` execution backend, and the admission every array tier shares.

A :class:`~repro.rounds.backend.ReplicaBatch` reaches an array round loop
through :func:`admit` (a batched kernel registered for the cell's
algorithm), defined here once, and then the kernel's one constructor,
:meth:`~repro.algorithms.batched.BatchKernel.from_cells` (values that do
not encode, or task parameters the kernel cannot represent, are only
detectable there).  :func:`build_cell` is that constructor on one batch,
plus the replicas' oracles vectorised.

:class:`BatchBackend` is exactly those two in front of the one numpy round
loop (:class:`~repro.batch.engine.BatchEngine`), run with a single cell: a
row space of the batch's own R rows, nothing padded, observers and row
compaction included.  The ``super`` tier calls ``admit`` and
``from_cells`` on many batches at once and adds no rung of its own; the
``compiled`` tier calls the same two functions and adds its own rungs.  A
declined batch runs on the scalar reference backend instead -- same
outcomes, replica by replica -- and ``last_fallback_reason`` records why.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..algorithms.batched import batch_kernel_for
from ..rounds.backend import (
    ReplicaBatch,
    ReplicaOutcome,
    ScalarBackend,
    register_backend,
)
from ..rounds.fallback import FallbackReason
from .engine import BatchEngine, Cell


def admit(batch: ReplicaBatch) -> Tuple[Optional[str], Any]:
    """The admission rung every array tier shares.

    Returns ``(reason, None)`` for a declined batch and ``(None,
    kernel_class)`` for an admitted one.
    """
    kernel_class = batch_kernel_for(batch.algorithm)
    if kernel_class is None:
        return (
            FallbackReason.NO_BATCH_KERNEL.render(algorithm=type(batch.algorithm).__name__),
            None,
        )
    return None, kernel_class


def build_cell(
    kernel_class: Any, batch: ReplicaBatch
) -> Tuple[Optional[str], Optional[Tuple[Any, Any]]]:
    """An admitted batch's ``(kernel, oracle)`` pair, or the reason it has none."""
    # Imported per call: bench/trace.py times vectorize_oracles by wrapping
    # the attribute on repro.adversaries.batch.
    from ..adversaries.batch import vectorize_oracles

    kernel, declined = kernel_class.from_cells([batch])
    if kernel is None:
        return declined[0], None
    oracle = vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
    return None, (kernel, oracle)


class BatchBackend:
    """Vectorised lockstep execution of replica batches, with a scalar safety net."""

    name = "batch"

    def __init__(self) -> None:
        self._scalar = ScalarBackend()
        #: why the last ``run`` fell back to the scalar loop (None = it
        #: vectorised).  Diagnostic only; outcomes are identical either way.
        self.last_fallback_reason: Optional[str] = None

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        reason, kernel_class = admit(batch)
        cell = None
        if reason is None:
            reason, cell = build_cell(kernel_class, batch)
        self.last_fallback_reason = reason
        if cell is None:
            return self._scalar.run(batch)
        kernel, oracle = cell
        return BatchEngine(kernel, [Cell(batch, oracle)]).run()[0]


register_backend(BatchBackend())


__all__ = ["BatchBackend", "admit", "build_cell"]
