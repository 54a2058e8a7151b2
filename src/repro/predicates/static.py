"""Whole-collection communication predicates: the paper's definitions.

Communication predicates (Section 3.1 and Table 1 of the paper) are
predicates over the collection of heard-of sets ``(HO(p, r))_{p in Pi, r>0}``.
A problem is solved by a pair ``<A, P>`` of an HO algorithm and a
communication predicate: the predicate captures *everything* the algorithm
requires from the environment, uniformly covering static/dynamic and
permanent/transient faults.

This module implements the *whole-collection* form of every predicate --
evaluation over a fully recorded :class:`repro.core.types.HOCollection`:

* the predicates of Table 1: ``P_otr`` (eq. 1) and ``P_restr_otr`` (eq. 2),
* the auxiliary predicates of Section 4.2: ``P_su`` (space uniformity),
  ``P_k`` (kernel), ``P_2otr`` and ``P_1/1otr``,
* generic building blocks (per-round majority, non-empty kernel, uniform
  rounds, eventual-kernel predicates) and boolean combinators.

Predicates are evaluated over *finite* recorded collections; existential
round quantifiers range over the recorded window ``1 .. max_round``.

Every Table 1 / Section 4.2 predicate also has a *streaming* form, the
array monitor of :mod:`repro.predicates.batch`, that consumes one round of
heard-of masks at a time in O(n) state and reaches the same verdict
without ever materialising the collection.  These definitions are its
reference.
"""

from __future__ import annotations

import abc
from typing import Callable, FrozenSet, Iterable, Optional

from ..rounds.bitmask import bit_count, iter_bits, mask_of
from ..core.types import HOCollection, HOSet, ProcessId, Round, validate_process_subset


# --------------------------------------------------------------------------- #
# Plain-function forms of Psu / Pk, shared by the predicate classes, the
# benchmark harness and the analysis layer.  Both run on the collection's
# bitmask hot path: one integer comparison per (process, round).
# --------------------------------------------------------------------------- #


def psu_holds(
    collection: HOCollection,
    pi0: Iterable[ProcessId],
    first_round: Round,
    last_round: Round,
) -> bool:
    """``P_su(Pi0, r1, r2)``: every round in ``[r1, r2]`` is space uniform for Pi0.

    Formally: for all ``p in Pi0`` and ``r in [r1, r2]``, ``HO(p, r) = Pi0``.
    """
    pi0_mask = mask_of(validate_process_subset(pi0, collection.n))
    if first_round <= 0 or last_round < first_round:
        return False
    return all(
        collection.ho_mask(p, r) == pi0_mask
        for r in range(first_round, last_round + 1)
        for p in iter_bits(pi0_mask)
    )


def pk_holds(
    collection: HOCollection,
    pi0: Iterable[ProcessId],
    first_round: Round,
    last_round: Round,
) -> bool:
    """``P_k(Pi0, r1, r2)``: Pi0 is in the kernel of every round in ``[r1, r2]``.

    Formally: for all ``p in Pi0`` and ``r in [r1, r2]``, ``HO(p, r) >= Pi0``.
    """
    pi0_mask = mask_of(validate_process_subset(pi0, collection.n))
    if first_round <= 0 or last_round < first_round:
        return False
    return all(
        collection.ho_mask(p, r) & pi0_mask == pi0_mask
        for r in range(first_round, last_round + 1)
        for p in iter_bits(pi0_mask)
    )


def find_psu_window(
    collection: HOCollection,
    pi0: Iterable[ProcessId],
    length: int,
    start_round: Round = 1,
) -> Optional[Round]:
    """First round ``r >= start_round`` such that ``P_su(Pi0, r, r+length-1)`` holds."""
    pi0_set = validate_process_subset(pi0, collection.n)
    for r in range(start_round, collection.max_round - length + 2):
        if psu_holds(collection, pi0_set, r, r + length - 1):
            return r
    return None


def find_pk_window(
    collection: HOCollection,
    pi0: Iterable[ProcessId],
    length: int,
    start_round: Round = 1,
) -> Optional[Round]:
    """First round ``r >= start_round`` such that ``P_k(Pi0, r, r+length-1)`` holds."""
    pi0_set = validate_process_subset(pi0, collection.n)
    for r in range(start_round, collection.max_round - length + 2):
        if pk_holds(collection, pi0_set, r, r + length - 1):
            return r
    return None


def otr_threshold(n: int) -> int:
    """Smallest cardinality strictly larger than ``2n/3`` (the OneThirdRule quorum)."""
    return (2 * n) // 3 + 1


# --------------------------------------------------------------------------- #
# Predicate classes
# --------------------------------------------------------------------------- #


class CommunicationPredicate(abc.ABC):
    """A predicate over a heard-of collection.

    Subclasses implement :meth:`holds`.  Instances are lightweight and
    reusable across runs.
    """

    #: Short identifier used in reports.
    name: str = "predicate"

    @abc.abstractmethod
    def holds(self, collection: HOCollection) -> bool:
        """Whether the predicate holds on the (finite) recorded collection."""

    # Boolean combinators -------------------------------------------------- #

    def __and__(self, other: "CommunicationPredicate") -> "And":
        return And(self, other)

    def __or__(self, other: "CommunicationPredicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name})"


class And(CommunicationPredicate):
    """Conjunction of communication predicates."""

    def __init__(self, *parts: CommunicationPredicate) -> None:
        if not parts:
            raise ValueError("And requires at least one predicate")
        self.parts = parts
        self.name = " & ".join(p.name for p in parts)

    def holds(self, collection: HOCollection) -> bool:
        return all(p.holds(collection) for p in self.parts)


class Or(CommunicationPredicate):
    """Disjunction of communication predicates."""

    def __init__(self, *parts: CommunicationPredicate) -> None:
        if not parts:
            raise ValueError("Or requires at least one predicate")
        self.parts = parts
        self.name = " | ".join(p.name for p in parts)

    def holds(self, collection: HOCollection) -> bool:
        return any(p.holds(collection) for p in self.parts)


class Not(CommunicationPredicate):
    """Negation of a communication predicate."""

    def __init__(self, inner: CommunicationPredicate) -> None:
        self.inner = inner
        self.name = f"not({inner.name})"

    def holds(self, collection: HOCollection) -> bool:
        return not self.inner.holds(collection)


class TruePredicate(CommunicationPredicate):
    """The trivial predicate: always holds (the fully asynchronous environment)."""

    name = "true"

    def holds(self, collection: HOCollection) -> bool:
        return True


class PerRoundCardinality(CommunicationPredicate):
    """``forall r, forall p: |HO(p, r)| >= threshold`` over the recorded window."""

    def __init__(self, threshold: int, scope: Optional[Iterable[ProcessId]] = None) -> None:
        self.threshold = threshold
        self.scope = frozenset(scope) if scope is not None else None
        self.name = f"per-round-cardinality(>={threshold})"

    def holds(self, collection: HOCollection) -> bool:
        scope = self.scope if self.scope is not None else collection.processes
        return all(
            bit_count(collection.ho_mask(p, r)) >= self.threshold
            for r in collection.rounds()
            for p in scope
        )


class MajorityEveryRound(PerRoundCardinality):
    """``forall r > 0, forall p: |HO(p, r)| > n/2`` (second example in Section 3.1)."""

    def __init__(self, n: int) -> None:
        super().__init__(threshold=n // 2 + 1)
        self.name = "majority-every-round"


class NonEmptyKernelEveryRound(CommunicationPredicate):
    """``forall r: intersection of HO(p, r) over p is non-empty``.

    This is the class of predicates "with non-empty kernel rounds" discussed
    in the related-work section (the Charron-Bost & Schiper weakest-predicate
    result).
    """

    name = "non-empty-kernel-every-round"

    def holds(self, collection: HOCollection) -> bool:
        return all(collection.kernel_mask(r) != 0 for r in collection.rounds())


class UniformRoundExists(CommunicationPredicate):
    """``exists r0 > 0: forall p, q: HO(p, r0) = HO(q, r0)`` (first example in Section 3.1)."""

    name = "uniform-round-exists"

    def holds(self, collection: HOCollection) -> bool:
        return any(collection.is_space_uniform(r) for r in collection.rounds())


class POtr(CommunicationPredicate):
    """``P_otr`` -- equation (1) of Table 1.

    ``exists r0 > 0, exists Pi0 with |Pi0| > 2n/3`` such that:

    * every process in Pi has ``HO(p, r0) = Pi0`` (a space-uniform round with
      a large enough heard-of set), and
    * every process ``p`` has a later round ``rp > r0`` with
      ``|HO(p, rp)| > 2n/3``.

    Paired with the OneThirdRule algorithm this predicate solves consensus
    for *all* processes (Theorem 1).

    Note: the second clause only bounds the *cardinality* of the later
    heard-of sets (after a Pi-wide space-uniform round every value in the
    system is common, so hearing any ``> 2n/3`` processes decides), whereas
    :class:`PRestrOtr`'s second clause requires *containment* of ``Pi0``.
    On arbitrary finite collections neither predicate implies the other.
    """

    name = "P_otr"

    def holds(self, collection: HOCollection) -> bool:
        n = collection.n
        threshold = otr_threshold(n)
        processes = collection.processes
        for r0 in collection.rounds():
            if not collection.is_space_uniform(r0):
                continue
            pi0 = collection.ho(0, r0) if n > 0 else frozenset()
            if len(pi0) < threshold:
                continue
            if self._second_part(collection, r0, processes, threshold):
                return True
        return False

    @staticmethod
    def _second_part(
        collection: HOCollection,
        r0: Round,
        processes: FrozenSet[ProcessId],
        threshold: int,
    ) -> bool:
        for p in processes:
            if not any(
                len(collection.ho(p, rp)) >= threshold
                for rp in range(r0 + 1, collection.max_round + 1)
            ):
                return False
        return True


class PRestrOtr(CommunicationPredicate):
    """``P_restr_otr`` -- equation (2) of Table 1 (restricted scope).

    ``exists r0 > 0, exists Pi0 with |Pi0| > 2n/3`` such that:

    * every process *in Pi0* has ``HO(p, r0) = Pi0``, and
    * every process *in Pi0* has a later round ``rp > r0`` with
      ``HO(p, rp) >= Pi0``.

    Paired with OneThirdRule, it guarantees integrity and agreement for all
    processes and termination for the processes in Pi0 (Theorem 2); this is
    the predicate implemented by the good-period algorithms of Section 4.
    """

    name = "P_restr_otr"

    def holds(self, collection: HOCollection) -> bool:
        return self.witness(collection) is not None

    def witness(self, collection: HOCollection) -> Optional[tuple[Round, HOSet]]:
        """Return a witness ``(r0, Pi0)`` if the predicate holds, else ``None``."""
        n = collection.n
        threshold = otr_threshold(n)
        for r0 in collection.rounds():
            for candidate in self._candidate_pi0(collection, r0):
                if len(candidate) < threshold:
                    continue
                if not all(collection.ho(p, r0) == candidate for p in candidate):
                    continue
                if self._second_part(collection, r0, candidate):
                    return r0, candidate
        return None

    @staticmethod
    def _candidate_pi0(collection: HOCollection, r0: Round) -> Iterable[HOSet]:
        seen = set()
        for p in collection.processes:
            ho = collection.ho(p, r0)
            if p in ho and ho not in seen:
                seen.add(ho)
                yield ho

    @staticmethod
    def _second_part(collection: HOCollection, r0: Round, pi0: HOSet) -> bool:
        for p in pi0:
            if not any(
                pi0.issubset(collection.ho(p, rp))
                for rp in range(r0 + 1, collection.max_round + 1)
            ):
                return False
        return True


class PSpaceUniform(CommunicationPredicate):
    """``P_su(Pi0, r1, r2)``: rounds ``r1 .. r2`` are space uniform for Pi0."""

    def __init__(self, pi0: Iterable[ProcessId], first_round: Round, last_round: Round) -> None:
        self.pi0 = frozenset(pi0)
        self.first_round = first_round
        self.last_round = last_round
        self.name = f"P_su(|Pi0|={len(self.pi0)}, {first_round}..{last_round})"

    def holds(self, collection: HOCollection) -> bool:
        return psu_holds(collection, self.pi0, self.first_round, self.last_round)


class PKernel(CommunicationPredicate):
    """``P_k(Pi0, r1, r2)``: Pi0 is contained in every HO set of Pi0 in rounds ``r1 .. r2``."""

    def __init__(self, pi0: Iterable[ProcessId], first_round: Round, last_round: Round) -> None:
        self.pi0 = frozenset(pi0)
        self.first_round = first_round
        self.last_round = last_round
        self.name = f"P_k(|Pi0|={len(self.pi0)}, {first_round}..{last_round})"

    def holds(self, collection: HOCollection) -> bool:
        return pk_holds(collection, self.pi0, self.first_round, self.last_round)


class P2Otr(CommunicationPredicate):
    """``P_2otr(Pi0)``: two *consecutive* rounds, the first space uniform, the second a kernel round.

    ``exists r0 > 0: P_su(Pi0, r0, r0) and P_k(Pi0, r0+1, r0+1)``.
    With ``|Pi0| > 2n/3`` this implies ``P_restr_otr``.
    """

    def __init__(self, pi0: Iterable[ProcessId]) -> None:
        self.pi0 = frozenset(pi0)
        self.name = f"P_2otr(|Pi0|={len(self.pi0)})"

    def holds(self, collection: HOCollection) -> bool:
        return self.witness(collection) is not None

    def witness(self, collection: HOCollection) -> Optional[Round]:
        """Return ``r0`` if the predicate holds, else ``None``."""
        for r0 in range(1, collection.max_round):
            if psu_holds(collection, self.pi0, r0, r0) and pk_holds(
                collection, self.pi0, r0 + 1, r0 + 1
            ):
                return r0
        return None


class P11Otr(CommunicationPredicate):
    """``P_1/1otr(Pi0)``: a space-uniform round followed (not necessarily immediately) by a kernel round.

    ``exists r0 > 0, exists r1 > r0: P_su(Pi0, r0, r0) and P_k(Pi0, r1, r1)``.
    With ``|Pi0| > 2n/3`` this implies ``P_restr_otr``.
    """

    def __init__(self, pi0: Iterable[ProcessId]) -> None:
        self.pi0 = frozenset(pi0)
        self.name = f"P_1/1otr(|Pi0|={len(self.pi0)})"

    def holds(self, collection: HOCollection) -> bool:
        return self.witness(collection) is not None

    def witness(self, collection: HOCollection) -> Optional[tuple[Round, Round]]:
        """Return a witness ``(r0, r1)`` if the predicate holds, else ``None``."""
        su_rounds = [
            r for r in collection.rounds() if psu_holds(collection, self.pi0, r, r)
        ]
        if not su_rounds:
            return None
        kernel_rounds = [
            r for r in collection.rounds() if pk_holds(collection, self.pi0, r, r)
        ]
        for r0 in su_rounds:
            for r1 in kernel_rounds:
                if r1 > r0:
                    return r0, r1
        return None


class ExistsPi0(CommunicationPredicate):
    """Existentially quantify the Pi0 parameter of a predicate factory.

    ``ExistsPi0(P2Otr, min_size=otr_threshold(n))`` is the predicate
    ``exists Pi0, |Pi0| >= min_size : P_2otr(Pi0)``, checked by enumerating
    candidate Pi0 sets drawn from the HO sets actually observed in the
    collection (checking all subsets would be exponential; every satisfying
    Pi0 of P_su/P_k-shaped predicates necessarily appears as an HO set).
    """

    def __init__(
        self,
        factory: Callable[[FrozenSet[ProcessId]], CommunicationPredicate],
        min_size: int,
    ) -> None:
        self.factory = factory
        self.min_size = min_size
        self.name = f"exists-Pi0(>={min_size})"

    def holds(self, collection: HOCollection) -> bool:
        return self.witness(collection) is not None

    def witness(self, collection: HOCollection) -> Optional[FrozenSet[ProcessId]]:
        """Return a satisfying Pi0 if one exists among observed HO sets."""
        candidates = set()
        for _, _, ho in collection.items():
            if len(ho) >= self.min_size:
                candidates.add(ho)
        for pi0 in sorted(candidates, key=lambda s: (-len(s), sorted(s))):
            if self.factory(pi0).holds(collection):
                return pi0
        return None


def exists_p2otr(n: int) -> ExistsPi0:
    """``exists Pi0, |Pi0| > 2n/3 : P_2otr(Pi0)`` (implies ``P_restr_otr``)."""
    return ExistsPi0(P2Otr, min_size=otr_threshold(n))


def exists_p11otr(n: int) -> ExistsPi0:
    """``exists Pi0, |Pi0| > 2n/3 : P_1/1otr(Pi0)`` (implies ``P_restr_otr``)."""
    return ExistsPi0(P11Otr, min_size=otr_threshold(n))


__all__ = [
    "CommunicationPredicate",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "PerRoundCardinality",
    "MajorityEveryRound",
    "NonEmptyKernelEveryRound",
    "UniformRoundExists",
    "POtr",
    "PRestrOtr",
    "PSpaceUniform",
    "PKernel",
    "P2Otr",
    "P11Otr",
    "ExistsPi0",
    "exists_p2otr",
    "exists_p11otr",
    "psu_holds",
    "pk_holds",
    "find_psu_window",
    "find_pk_window",
    "otr_threshold",
]
