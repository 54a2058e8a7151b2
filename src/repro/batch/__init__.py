"""repro.batch: the vectorised lockstep-replica execution backend.

Every experiment the paper cares about is "the same heard-of-oracle
scenario, R seeds, aggregate".  This package runs those R replicas as *one*
computation: per-process estimates live in ``(R, n)`` numpy arrays, heard-of
sets in ``(R, ceil(n/64))`` uint64 mask arrays (the word spill of
:mod:`repro.rounds.bitmask`), transitions advance through the batched
kernels of :mod:`repro.algorithms.batched`, environments through the
batched oracles of :mod:`repro.adversaries.batch`, and predicate monitors
through :mod:`repro.predicates.batch` -- all replica-vectorised, all
bit-identical per seed to the scalar :class:`~repro.rounds.engine.RoundEngine`
path.

Whenever a batch is not vectorisable (unknown algorithm, unencodable
values) the :class:`~repro.batch.backends.BatchBackend` transparently runs
the scalar reference loop instead, so the behaviour stays identical either
way.

Both backends run the one round loop of :mod:`repro.batch.engine`.  The
cross-cell :class:`~repro.batch.super.SuperBatchBackend` goes one axis
further than the per-cell one: it packs B heterogeneous sweep cells --
different n, horizons, fault models, monitored or not -- into one padded
row space and steps the whole grid in a single run of that loop, retiring
and compacting rows as replicas decide.

Importing this package registers the ``batch`` and ``super`` backends with
:mod:`repro.rounds.backend`; :func:`repro.rounds.backend.get_backend` does
that import lazily.
"""

from ..rounds.backend import (
    AUTO_BACKEND,
    ExecutionBackend,
    MonitorSpec,
    ReplicaBatch,
    ReplicaOutcome,
    ReplicaTask,
    ScalarBackend,
    backend_names,
    get_backend,
)
from .backends import BatchBackend
from .engine import BatchEngine
from .super import SuperBatchBackend

__all__ = [
    "AUTO_BACKEND",
    "ExecutionBackend",
    "MonitorSpec",
    "ReplicaBatch",
    "ReplicaOutcome",
    "ReplicaTask",
    "ScalarBackend",
    "BatchBackend",
    "BatchEngine",
    "SuperBatchBackend",
    "backend_names",
    "get_backend",
]
