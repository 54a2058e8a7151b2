"""Batched heard-of oracles: the replica-vectorised environment layer.

A :class:`BatchOracle` produces, per round, the heard-of sets of *all* R
replicas of a batch at once, as an ``(R, n, ceil(n/64))`` uint64 mask array
(the word-spill layout of :func:`repro.rounds.bitmask.mask_to_words`).  Two
strategies cover the whole oracle zoo:

* :class:`BroadcastBatchOracle` -- for *replica-invariant* environments
  (``oracle.replica_invariant``: the classic crash-stop / static-omission /
  partition-schedule family, scripted and silent-round oracles, and any
  combinator over those).  The masks depend only on ``(round, process)``,
  so one scalar query per process is computed and broadcast across the
  replica axis -- the vectorised classic zoo.
* :class:`PerReplicaBatchOracle` -- the automatic fallback loop for the
  stateful families (seeded omission/loss, the dynamic adversaries, any
  combinator containing one).  Each replica owns the exact scalar oracle
  the corresponding single run would use, queried replica by replica; the
  transition kernels above stay vectorised, and bit-identity with the
  scalar path is preserved because the very same oracle objects draw from
  the very same :class:`~repro.engine.rng.SeededRng` streams.  A batch of
  plain :class:`~repro.adversaries.classic.RandomOmissionOracle` objects
  (the ``lossy`` fault model) keeps the per-replica iteration -- the stream is
  sequential -- but draws each replica's whole round in one go
  (:class:`RandomOmissionBatchOracle`).

:func:`vectorize_oracles` picks the strategy.  Broadcasting additionally
assumes the per-replica oracles were *constructed identically* (a
replica-invariant oracle whose constructor arguments varied per seed would
still differ across replicas); the scenario builders guarantee this by
constructing deterministic oracles independently of the replica seed.
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, runtime_checkable

import numpy as np

from ..batch.arrays import pack_bools
from ..rounds.bitmask import full_mask, mask_to_words, word_count
from .base import HOOracleBase
from .classic import RandomOmissionOracle


@runtime_checkable
class BatchOracle(Protocol):
    """The environment of a replica batch: all replicas' masks, per round.

    ``round_masks(round, active)`` returns the ``(R, n, W)`` uint64 array of
    heard-of sets for *round*; *active* is an ``(R,)`` bool array and rows
    of inactive replicas may hold arbitrary (ignored) masks -- a stopped
    replica's oracle must not be queried further, exactly like a finished
    scalar run.
    """

    n: int
    replicas: int

    def round_masks(self, round: int, active: Any) -> Any: ...


class BroadcastBatchOracle:
    """One replica-invariant scalar oracle, broadcast across the replica axis."""

    def __init__(self, oracle: HOOracleBase, replicas: int) -> None:
        if not getattr(oracle, "replica_invariant", False):
            raise ValueError(
                f"{type(oracle).__name__} is not replica-invariant; "
                "use PerReplicaBatchOracle"
            )
        self.oracle = oracle
        self.n = oracle.n
        self.replicas = replicas
        self._full = full_mask(self.n)
        # The row changes only at a phase boundary (a crash round, a
        # SequenceOracle switch): it is re-spilled when the masks differ
        # from last round's, and every round returns the same view of it.
        self._masks: List[int] = []
        self._row = np.empty((self.n, word_count(self.n)), dtype=np.uint64)
        self._view = np.broadcast_to(self._row, (replicas, *self._row.shape))

    def round_masks(self, round: int, active: Any) -> Any:
        mask_fn = self.oracle.ho_mask
        full = self._full
        masks = [mask_fn(round, p) & full for p in range(self.n)]
        if masks != self._masks:
            self._masks = masks
            for row, mask in zip(self._row, masks):
                row[:] = mask_to_words(mask, self.n)
        return self._view


class PerReplicaBatchOracle:
    """The fallback loop: one scalar oracle per replica, queried in a loop.

    Queries follow the scalar engine's order (ascending process id per
    round, replicas independent), so seeded oracles draw exactly the
    streams their single-run twins draw.  Inactive replicas are skipped --
    their oracles stop being queried the moment their run would have ended.

    :meth:`round_masks` is the one entry point; a subclass that knows its
    oracles' family overrides :meth:`_fill` only.
    """

    def __init__(self, oracles: Sequence[HOOracleBase]) -> None:
        if not oracles:
            raise ValueError("at least one per-replica oracle is required")
        n = oracles[0].n
        for oracle in oracles:
            if oracle.n != n:
                raise ValueError("per-replica oracles must share one system size")
        self.oracles = list(oracles)
        self.n = n
        self.replicas = len(self.oracles)
        self._words = word_count(n)
        self._full = full_mask(n)
        self._buffer = np.zeros((self.replicas, n, self._words), dtype=np.uint64)

    def round_masks(self, round: int, active: Any) -> Any:
        self._fill(round, np.flatnonzero(active))
        return self._buffer

    def _fill(self, round: int, rows: Any) -> None:
        """Write *round*'s words of the replicas *rows* (ascending) into the buffer."""
        buffer = self._buffer
        full = self._full
        n = self.n
        for r in rows.tolist():
            mask_fn = self.oracles[r].ho_mask
            for p in range(n):
                buffer[r, p] = mask_to_words(mask_fn(round, p) & full, n)


class RandomOmissionBatchOracle(PerReplicaBatchOracle):
    """The loop over plain ``RandomOmissionOracle`` objects, a replica-round per draw.

    Still one Python iteration per active replica -- each replica's
    ``oracle.loss`` stream is sequential, so this *is* the opaque loop to
    every ``isinstance`` check -- but the iteration is one comprehension of
    the round's ``stream.random()`` calls in the scalar order (receiver
    ascending, sender ascending, self skipped under ``always_hear_self``),
    and all active rows are then compared, scattered and packed together.
    ``ho_mask`` is never called, so the oracles' memos stay empty; what a
    run leaves behind is each stream exactly where the scalar oracle's is.
    """

    def __init__(self, oracles: Sequence[RandomOmissionOracle]) -> None:
        super().__init__(oracles)
        n = self.n
        self._loss = oracles[0].loss_probability
        self._randoms = [oracle._stream.random for oracle in oracles]
        self._heard = np.ones((self.replicas, n, n), dtype=bool)
        # The drawn entries as a view in draw order: everything, or -- the
        # diagonal staying True -- the off-diagonal as (R, n-1, n).
        self._drawn = self._heard
        if oracles[0].always_hear_self:
            self._drawn = self._heard.reshape(self.replicas, n * n)[:, 1:].reshape(
                self.replicas, n - 1, n + 1
            )[:, :, :n]
        self._draws = range(self._drawn[0].size)

    def _fill(self, round: int, rows: Any) -> None:
        draws = self._draws
        randoms = self._randoms
        units = [[randoms[r]() for _ in draws] for r in rows.tolist()]
        kept = np.array(units, dtype=float) >= self._loss
        self._drawn[rows] = kept.reshape(len(rows), *self._drawn.shape[1:])
        self._buffer[rows] = pack_bools(self._heard[rows], self.n)


class IntersectBatchOracle:
    """Intersection of batch oracles (the batched ``IntersectOracle``)."""

    def __init__(self, *components: BatchOracle) -> None:
        if not components:
            raise ValueError("at least one component is required")
        self.components = components
        self.n = components[0].n
        self.replicas = components[0].replicas
        for component in components:
            if (component.n, component.replicas) != (self.n, self.replicas):
                raise ValueError("components must share (n, replicas)")

    def round_masks(self, round: int, active: Any) -> Any:
        masks = self.components[0].round_masks(round, active)
        for component in self.components[1:]:
            masks = masks & component.round_masks(round, active)
        return masks


def _structurally_equal(a: Any, b: Any) -> bool:
    """Whether two oracle objects were constructed with the same parameters.

    Replica invariance says an oracle's masks depend only on ``(round,
    process)`` *and its constructor arguments* -- a batch may still have
    been built with per-replica arguments (say, a different crash round per
    seed), in which case broadcasting replica 0 would be silently wrong.
    Deterministic oracles keep all their construction state in plain
    instance attributes (ints, masks, dicts, nested component oracles), so
    structural equality over those attributes is a sound broadcast check;
    anything uncomparable conservatively fails it.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, HOOracleBase):
        return _structurally_equal(a.__dict__, b.__dict__)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_structurally_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_structurally_equal, a, b))
    try:
        return bool(a == b)
    except Exception:
        return False


def _bulk_drawable(oracles: Sequence[HOOracleBase]) -> bool:
    """Whether the loop over *oracles* may draw whole rounds off their streams.

    Exactly ``RandomOmissionOracle`` (a subclass may override ``ho_mask``),
    one ``(loss_probability, always_hear_self)`` for the batch, and no
    memoised choice yet -- a memo entry is a round the scalar oracle would
    answer without drawing.
    """
    first = oracles[0]
    return all(
        type(oracle) is RandomOmissionOracle
        and not oracle._memo
        and oracle.loss_probability == first.loss_probability
        and oracle.always_hear_self == first.always_hear_self
        for oracle in oracles
    )


def vectorize_oracles(oracles: Sequence[HOOracleBase], replicas: int) -> Any:
    """The batch oracle for one oracle per replica, broadcast when sound.

    *oracles* holds the scalar oracle of every replica (length R).  The
    batch is served by broadcasting replica 0's oracle exactly when every
    oracle is replica-invariant *and* structurally equal to it (same class,
    same constructor state, recursively through combinator components) --
    replica-varying or stateful environments keep one oracle per replica
    via the fallback loop, so broadcasting can never silently change a
    replica's environment.

    The dynamic adversary families draw counter-based randomness
    (:mod:`repro.adversaries.counter_batch`): a batch of one family with
    shared construction parameters is served by its array dual, which
    recomputes the scalar oracles' draws array-wide -- bit-identical with
    no per-replica loop.

    Intersections decompose: a batch of ``IntersectOracle``\\ s is rebuilt
    as an :class:`IntersectBatchOracle` whose components broadcast or run
    their counter duals independently.  Decomposition reorders queries
    *across* components (component by component instead of process by
    process), which is invisible to broadcast and counter-based components
    (their draws carry no cursor) but would change the draw interleaving of
    two *sequential* stateful components sharing a stream -- so the guard
    that remains is: at most one component may resolve to the opaque
    :class:`PerReplicaBatchOracle` loop (of which the bulk-drawing
    :class:`RandomOmissionBatchOracle` is one: its draws are sequential too).
    """
    from .combinators import IntersectOracle
    from .counter_batch import counter_batch_dual

    if len(oracles) != replicas:
        raise ValueError(f"expected {replicas} oracles, got {len(oracles)}")
    if getattr(oracles[0], "replica_invariant", False) and all(
        _structurally_equal(oracle, oracles[0]) for oracle in oracles[1:]
    ):
        return BroadcastBatchOracle(oracles[0], replicas)
    dual = counter_batch_dual(oracles, replicas)
    if dual is not None:
        return dual
    if isinstance(oracles[0], IntersectOracle):
        arity = len(oracles[0].oracles)
        if arity > 1 and all(
            type(oracle) is IntersectOracle and len(oracle.oracles) == arity
            for oracle in oracles
        ):
            components = [
                vectorize_oracles([oracle.oracles[i] for oracle in oracles], replicas)
                for i in range(arity)
            ]
            sequential = sum(
                1 for c in components if isinstance(c, PerReplicaBatchOracle)
            )
            if sequential <= 1:
                return IntersectBatchOracle(*components)
    if _bulk_drawable(oracles):
        return RandomOmissionBatchOracle(oracles)
    return PerReplicaBatchOracle(oracles)


__all__ = [
    "BatchOracle",
    "BroadcastBatchOracle",
    "PerReplicaBatchOracle",
    "RandomOmissionBatchOracle",
    "IntersectBatchOracle",
    "vectorize_oracles",
]
