"""The ``super`` execution backend: the whole grid as one lockstep unit.

:class:`~repro.batch.backends.BatchBackend` runs the one numpy round loop
(:class:`~repro.batch.engine.BatchEngine`) on the R replicas of *one* sweep
cell; the grid axis -- (scenario, fault model, n, seed-count) cells --
remains a Python loop, and small-n cells leave most of the array width
idle.  :class:`SuperBatchBackend` hands the same loop B heterogeneous cells
at once instead: cells are grouped by kernel class, and each group is
packed into a single padded row space (:func:`_pack_cells` -- estimates in
one ``(sum(R_b), n_max)`` code array, the batch kernels' mixed-``row_n``
mode, where columns above a row's own n are padding that never passes an
update gate).  Heterogeneous horizons, scopes and fault models coexist
because every per-row quantity is a row vector of the loop; monitored and
fingerprinted cells pack like any other because their observers are a slot
of it.

Cells the shared admission (:func:`repro.batch.backends.admit`) or this
tier's own rungs decline (kernels built from the full task context,
unencodable values) fall back to the per-cell batch backend -- the same
outcomes, cell by cell; ``last_fallback_reasons`` records which and why.
The contract is unchanged: per seed, outcomes are bit-identical to the
scalar reference backend (and hence to the per-cell batch backend).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..rounds.backend import ReplicaBatch, ReplicaOutcome, register_backend
from ..rounds.fallback import FallbackReason

# Unused here: bench/trace.py's patch table wraps both names on this module.
from .arrays import popcount_words, unpack_words  # noqa: F401
from .backends import BatchBackend, admit
from .engine import BatchEngine, Cell


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
            kernel, cells = _pack_cells(kernel_class, [batches[i] for i in indices])
            outcomes = BatchEngine(kernel, cells).run()
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
            # kernel's embedded inner kernel) cannot be built for a padded
            # mixed-n row space; they keep the per-cell batch path.
            return (
                FallbackReason.NOT_SUPER_BATCHABLE.render(kernel=kernel_class.__name__),
                None,
            )
        from ..algorithms.batched import BatchUnsupported, encode_values

        try:
            for task in batch.tasks:
                encode_values(list(task.initial_values))
        except BatchUnsupported as exc:
            return str(exc), None
        return None, kernel_class


def _pack_cells(kernel_class: Any, batches: Sequence[ReplicaBatch]) -> Tuple[Any, List[Cell]]:
    """One padded kernel for every replica of *batches*, and their cells.

    Rows are cell-major; a row narrower than the widest cell is padded up
    to it (the kernels' mixed-``row_n`` mode).
    """
    # Imported per call: bench/trace.py times vectorize_oracles by wrapping
    # the attribute on repro.adversaries.batch.
    from ..adversaries.batch import vectorize_oracles

    n_max = max(batch.n for batch in batches)
    padded_values: List[List[Any]] = []
    row_n: List[int] = []
    cells: List[Cell] = []
    for batch in batches:
        for task in batch.tasks:
            values = list(task.initial_values)
            # Padding duplicates the first value: the code table is a
            # set, so the extra columns change nothing, and padded
            # receivers never hear anyone so they never act on it.
            values.extend(values[:1] * (n_max - batch.n))
            padded_values.append(values)
            row_n.append(batch.n)
        oracle = vectorize_oracles([task.oracle for task in batch.tasks], batch.replicas)
        cells.append(Cell(batch, oracle))
    return kernel_class(n_max, padded_values, row_n=row_n), cells


register_backend(SuperBatchBackend())


__all__ = ["SuperBatchBackend"]
