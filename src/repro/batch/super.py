"""The ``super`` execution backend: the whole grid as one lockstep unit.

:class:`~repro.batch.backends.BatchBackend` runs the one numpy round loop
(:class:`~repro.batch.engine.BatchEngine`) on the R replicas of *one* sweep
cell; the grid axis -- (scenario, fault model, n, seed-count) cells --
remains a Python loop, and small-n cells leave most of the array width
idle.  :class:`SuperBatchBackend` hands the same loop B heterogeneous cells
at once instead: cells are grouped by kernel class, and each group becomes
a single padded row space through the kernels' one constructor
(:meth:`~repro.algorithms.batched.BatchKernel.from_cells` -- estimates in
one ``(sum(R_b), n_max)`` code array, the kernels' mixed-``row_n`` mode,
where columns above a row's own n are padding that never passes an update
gate, and per-row task parameters such as the translation kernel's ``f``
as row vectors).  Heterogeneous horizons, scopes and fault models coexist
because every per-row quantity is a row vector of the loop; monitored and
fingerprinted cells pack like any other because their observers are a slot
of it.  Cells of one row space that carry the same environment -- the same
family keys, the same loss streams, under another fault model or
algorithm -- hold one oracle component, drawn once per round for all of
them (:func:`repro.adversaries.batch.shared_components`); sharing never
crosses row spaces.

The tier adds no rung of its own: a cell the shared admission
(:func:`repro.batch.backends.admit`) or ``from_cells`` declines (unencodable
values, an inner algorithm the translation kernel cannot step) is exactly a
cell the per-cell batch backend declines too, so it runs where that backend
would send it, on the scalar reference -- the same outcomes, cell by cell;
``last_fallback_reasons`` records which and why.  The contract is
unchanged: per seed, outcomes are bit-identical to the scalar reference
backend (and hence to the per-cell batch backend).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..rounds.backend import ReplicaBatch, ReplicaOutcome, ScalarBackend, register_backend

# Unused here: bench/trace.py's patch table wraps both names on this module.
from .arrays import popcount_words, unpack_words  # noqa: F401
from .backends import admit
from .engine import BatchEngine, Cell


class SuperBatchBackend:
    """Cross-cell lockstep execution: many ReplicaBatches, one round loop."""

    name = "super"

    def __init__(self) -> None:
        self._scalar = ScalarBackend()
        #: why the last single-batch ``run`` left the super path (None = it
        #: super-batched).  Mirrors ``BatchBackend.last_fallback_reason``.
        self.last_fallback_reason: Optional[str] = None
        #: per input index of the last ``run_batches``: the fallback reason
        #: of every cell that took the scalar path.
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
        # Imported per call: bench/trace.py times vectorize_oracles by
        # wrapping the attribute on repro.adversaries.batch.
        from ..adversaries.batch import vectorize_oracles

        reasons: Dict[int, str] = {}
        self.last_fallback_reasons = reasons
        results: List[Optional[List[ReplicaOutcome]]] = [None] * len(batches)
        groups: Dict[Any, List[int]] = {}
        for i, batch in enumerate(batches):
            reason, kernel_class = admit(batch)
            if reason is None:
                groups.setdefault(kernel_class, []).append(i)
            else:
                reasons[i] = reason
        for kernel_class, indices in groups.items():
            kernel, declined = kernel_class.from_cells([batches[i] for i in indices])
            reasons.update((indices[j], reason) for j, reason in declined.items())
            if kernel is None:
                continue
            members = [i for j, i in enumerate(indices) if j not in declined]
            # One table per engine run: cells of this row space whose
            # environments are provably identical hold one component.
            shared: Dict[Any, Any] = {}
            cells = []
            for i in members:
                oracles = [task.oracle for task in batches[i].tasks]
                cells.append(
                    Cell(batches[i], vectorize_oracles(oracles, batches[i].replicas, shared))
                )
            for i, outcomes in zip(members, BatchEngine(kernel, cells).run()):
                results[i] = outcomes
        for i in sorted(reasons):
            results[i] = self._scalar.run(batches[i])
        self.last_fallback_reason = reasons.get(0) if batches else None
        return results  # type: ignore[return-value]


register_backend(SuperBatchBackend())


__all__ = ["SuperBatchBackend"]
