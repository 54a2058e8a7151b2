"""The ``compiled`` execution backend: JIT when possible, degrade when not.

:class:`CompiledBackend` is the decision layer in front of the
:class:`~repro.compiled.engine.CompiledEngine`, one tier above
:class:`repro.batch.backends.BatchBackend`.  A
:class:`~repro.rounds.backend.ReplicaBatch` passes the array tiers' shared
admission and cell build (:func:`repro.batch.backends.admit`,
:func:`~repro.batch.backends.build_cell`) plus the rungs only the fused
loop has:

1. numba is available (the ``compiled`` extra; honours
   ``REPRO_DISABLE_NUMBA``);
2. the admitted kernel has a compiled dual
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
from ..batch.backends import BatchBackend, admit, build_cell
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

    def __init__(self, interpreted: bool = False) -> None:
        #: run the cores under CPython even without numba (test mode).
        self.interpreted = interpreted
        self._batch = BatchBackend()
        #: why the last ``run`` degraded to the numpy batch path (None =
        #: the fused loop ran).  Diagnostic only; outcomes are identical.
        self.last_fallback_reason: Optional[str] = None

    def run(self, batch: ReplicaBatch) -> List[ReplicaOutcome]:
        reason, engine = self._eligibility(batch)
        self.last_fallback_reason = reason
        if engine is None:
            return self._batch.run(batch)
        return engine.run()

    # ------------------------------------------------------------------ #
    # the compilation decision
    # ------------------------------------------------------------------ #

    def _eligibility(
        self, batch: ReplicaBatch
    ) -> Tuple[Optional[str], Optional[CompiledEngine]]:
        """Why the fused loop cannot take *batch*, or the engine that will."""
        if have_numpy() and not self.interpreted and not have_numba():
            # Ahead of the shared shape rungs, behind the shared numpy one.
            return FallbackReason.NO_NUMBA.render(), None
        reason, kernel_class = admit(batch)
        if reason is not None:
            return reason, None
        spec = compiled_kernel_for(kernel_class)
        if spec is None:
            return (
                FallbackReason.NO_COMPILED_KERNEL.render(kernel=kernel_class.__name__),
                None,
            )
        if batch.monitor_spec is not None:
            return FallbackReason.MONITORED_COMPILED_CELL.render(), None
        if batch.fingerprints:
            return FallbackReason.FINGERPRINTED_COMPILED_CELL.render(), None
        reason, cell = build_cell(kernel_class, batch)
        if cell is None:
            return reason, None
        kernel, oracle = cell
        if _needs_replica_loop(oracle):
            return FallbackReason.OPAQUE_COMPILED_ORACLE.render(), None
        compiled = have_numba() and not self.interpreted
        return None, CompiledEngine(batch, kernel, oracle, spec, compiled)


register_backend(CompiledBackend())


__all__ = ["CompiledBackend"]
