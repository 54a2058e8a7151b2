"""Predicate-driven oracle synthesis: environments from specifications.

A communication predicate *is* the specification of an environment, so it
can be run backwards: given any
:class:`~repro.predicates.static.CommunicationPredicate`, search for a finite
heard-of collection that satisfies (or violates) it, and replay that
collection as an oracle.  This turns every predicate in the library into a
test-environment factory: ``synthesize_oracle(POtr(), n=5)`` yields an
environment under which OneThirdRule must terminate, and
``satisfy=False`` yields one under which only safety may be asserted.

The search is generate-and-test over a pool of *structured* candidate
shapes (fault-free, silence, omission noise, partitions with optional heal,
good-period windows, kernel rounds, single uniform rounds) -- the shapes
the paper's predicates quantify over -- with all randomness drawn from the
``oracle.synthesis`` sub-stream.  For the predicates shipped with the
library a witness is typically found within the first few attempts; a
:class:`SynthesisError` reports an exhausted budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:
    import random

from ..predicates.static import CommunicationPredicate
from ..core.types import HOCollection, ProcessId, Round
from ..engine.rng import SeededRng
from ..rounds.bitmask import full_mask, mask_of
from .base import MaskOracleBase, bernoulli_mask, oracle_rng


class SynthesisError(RuntimeError):
    """No heard-of collection matching the request was found within the budget."""


class CollectionOracle(MaskOracleBase):
    """Replay a recorded :class:`HOCollection` as a heard-of oracle.

    Rounds beyond the recorded window fall back to *default_mask* (the full
    process set unless stated otherwise), so replayed environments keep a
    machine runnable past the synthesised prefix.
    """

    replica_invariant = True

    def __init__(self, collection: HOCollection, default_mask: Optional[int] = None) -> None:
        super().__init__(collection.n)
        self.collection = collection
        self.default_mask = self._full if default_mask is None else default_mask & self._full

    def ho_mask(self, round: Round, process: ProcessId) -> int:
        if 1 <= round <= self.collection.max_round and self.collection.has_record(process, round):
            return self.collection.ho_mask(process, round)
        return self.default_mask


# --------------------------------------------------------------------------- #
# candidate-shape generators
# --------------------------------------------------------------------------- #


def _fill(collection: HOCollection, round: Round, masks: List[int]) -> None:
    for p, mask in enumerate(masks):
        collection.record_mask(p, round, mask)


def _uniform_round(n: int, mask: int) -> List[int]:
    return [mask] * n


def _candidate_fault_free(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    full = full_mask(n)
    for r in range(1, rounds + 1):
        _fill(collection, r, _uniform_round(n, full))
    return collection


def _candidate_silent(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    for r in range(1, rounds + 1):
        _fill(collection, r, _uniform_round(n, 0))
    return collection


def _candidate_omission(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    hear = 1.0 - stream.choice((0.1, 0.3, 0.5, 0.7, 0.9))
    for r in range(1, rounds + 1):
        for p in range(n):
            collection.record_mask(p, r, bernoulli_mask(stream, n, hear) | (1 << p))
    return collection


def _candidate_partition(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    blocks = stream.randrange(2, max(3, n // 2 + 1))
    assignment = [stream.randrange(blocks) for p in range(n)]
    heal = stream.choice((None, stream.randrange(1, rounds + 1)))
    full = full_mask(n)
    block_masks = [
        mask_of(q for q in range(n) if assignment[q] == b) for b in range(blocks)
    ]
    for r in range(1, rounds + 1):
        for p in range(n):
            if heal is not None and r >= heal:
                collection.record_mask(p, r, full)
            else:
                collection.record_mask(p, r, block_masks[assignment[p]] | (1 << p))
    return collection


def _candidate_good_period(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    pi0_size = stream.randrange(max(1, (2 * n) // 3 + 1), n + 1)
    pi0_mask = mask_of(stream.sample(range(n), pi0_size))
    good_from = stream.randrange(1, rounds + 1)
    for r in range(1, rounds + 1):
        for p in range(n):
            if r >= good_from and (pi0_mask >> p) & 1:
                collection.record_mask(p, r, pi0_mask)
            else:
                collection.record_mask(p, r, bernoulli_mask(stream, n, 0.4) | (1 << p))
    return collection


def _candidate_kernel(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    pi0_size = stream.randrange(max(1, (2 * n) // 3 + 1), n + 1)
    pi0_mask = mask_of(stream.sample(range(n), pi0_size))
    for r in range(1, rounds + 1):
        for p in range(n):
            extras = bernoulli_mask(stream, n, 0.5) & ~pi0_mask
            collection.record_mask(p, r, pi0_mask | extras | (1 << p))
    return collection


def _candidate_single_uniform(n: int, rounds: int, stream: random.Random) -> HOCollection:
    collection = HOCollection(n)
    full = full_mask(n)
    special = stream.randrange(1, rounds + 1)
    for r in range(1, rounds + 1):
        if r == special:
            _fill(collection, r, _uniform_round(n, full))
        else:
            for p in range(n):
                collection.record_mask(p, r, bernoulli_mask(stream, n, 0.6) | (1 << p))
    return collection


CandidateGenerator = Callable[[int, int, "random.Random"], HOCollection]

#: The structured shapes the search draws from.  Deterministic shapes first:
#: they are witnesses (or counterexamples) for most of the paper's
#: predicates, so the common cases resolve without touching the stream.
CANDIDATE_GENERATORS: List[CandidateGenerator] = [
    _candidate_fault_free,
    _candidate_silent,
    _candidate_good_period,
    _candidate_kernel,
    _candidate_partition,
    _candidate_omission,
    _candidate_single_uniform,
]


def synthesize_collection(
    predicate: CommunicationPredicate,
    n: int,
    rounds: int = 20,
    satisfy: bool = True,
    seed: int = 0,
    rng: Optional[SeededRng] = None,
    max_attempts: int = 400,
) -> HOCollection:
    """Search for a heard-of collection on which ``predicate.holds`` is *satisfy*.

    The first pass tries every candidate shape once; subsequent passes
    re-draw shapes at random with fresh randomness.  Raises
    :class:`SynthesisError` when *max_attempts* candidates were all rejected.
    """
    if n <= 0:
        raise ValueError(f"number of processes must be positive, got {n}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    stream = oracle_rng(seed, rng).stream("oracle.synthesis")
    attempts = 0
    while attempts < max_attempts:
        if attempts < len(CANDIDATE_GENERATORS):
            generator = CANDIDATE_GENERATORS[attempts]
        else:
            generator = stream.choice(CANDIDATE_GENERATORS)
        candidate = generator(n, rounds, stream)
        attempts += 1
        if predicate.holds(candidate) == satisfy:
            return candidate
    raise SynthesisError(
        f"no collection with holds({predicate.name}) == {satisfy} found for "
        f"n={n}, rounds={rounds} within {max_attempts} attempts"
    )


def synthesize_oracle(
    predicate: CommunicationPredicate,
    n: int,
    rounds: int = 20,
    satisfy: bool = True,
    seed: int = 0,
    rng: Optional[SeededRng] = None,
    max_attempts: int = 400,
) -> CollectionOracle:
    """An oracle whose first *rounds* rounds satisfy (or violate) *predicate*.

    The synthesised prefix is replayed verbatim; later rounds are fault free
    by default, so machines can run past the prefix.  Note that a violating
    prefix followed by fault-free rounds may make the predicate hold on the
    *longer* recorded window -- cap the run at *rounds* (or pass
    ``default_mask=0`` to :class:`CollectionOracle`) when the violation must
    persist.
    """
    collection = synthesize_collection(
        predicate,
        n,
        rounds=rounds,
        satisfy=satisfy,
        seed=seed,
        rng=rng,
        max_attempts=max_attempts,
    )
    return CollectionOracle(collection)


__all__ = [
    "SynthesisError",
    "CollectionOracle",
    "synthesize_collection",
    "synthesize_oracle",
    "CANDIDATE_GENERATORS",
]
