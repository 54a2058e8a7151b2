"""Heard-of oracles: the composable environment/adversary layer.

In the HO model the environment is fully described by the heard-of sets it
produces, so adversaries form an *algebra*: base fault families compose
through set operations on heard-of sets, switch over round windows, and can
even be synthesised from the communication predicate they are supposed to
satisfy or violate.

* :mod:`~repro.adversaries.base` -- the set-native and mask-native oracle
  base classes and the :class:`~repro.engine.rng.SeededRng` plumbing (all
  oracle randomness flows through named sub-streams: ``oracle.loss``,
  ``oracle.partition``, ``oracle.mobile``, ``oracle.burst``,
  ``oracle.coordinator``, ``oracle.kernel``, ``oracle.synthesis``);
* :mod:`~repro.adversaries.classic` -- the original oracle zoo (fault-free,
  static crashes, omissions, partitions, scripted, good-period, kernel);
* :mod:`~repro.adversaries.combinators` -- intersect / union / sequence /
  per-window switching over arbitrary oracles;
* :mod:`~repro.adversaries.dynamic` -- mobile omissions, rotating
  partitions with churn, bursty (Gilbert-Elliott) link loss, and the
  eventually-stable coordinator;
* :mod:`~repro.adversaries.synthesis` -- build an oracle that satisfies or
  violates any :class:`~repro.predicates.static.CommunicationPredicate`;
* :mod:`~repro.adversaries.batch` -- the batched (replica-vectorised)
  environment layer: the :class:`~repro.adversaries.batch.BatchOracle`
  protocol, broadcasting for the replica-invariant classic zoo and the
  automatic per-replica fallback loop for the stateful dynamic/combinator
  families.
"""

from .batch import (
    BatchOracle,
    BroadcastBatchOracle,
    IntersectBatchOracle,
    PerReplicaBatchOracle,
    RandomOmissionBatchOracle,
    vectorize_oracles,
)
from .base import (
    HOOracle,
    HOOracleBase,
    MaskOracleBase,
    OracleAdapter,
    bernoulli_mask,
    ensure_oracle,
    oracle_rng,
)
from .classic import (
    CounterKernelOracle,
    FaultFreeOracle,
    GoodPeriodOracle,
    KernelOnlyOracle,
    PartitionOracle,
    RandomOmissionOracle,
    ScriptedOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
)
from .combinators import (
    IntersectOracle,
    SequenceOracle,
    UnionOracle,
    WindowSwitchOracle,
)
from .dynamic import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
)
from .synthesis import (
    CollectionOracle,
    SynthesisError,
    synthesize_collection,
    synthesize_oracle,
)

__all__ = [
    # base
    "HOOracle",
    "HOOracleBase",
    "MaskOracleBase",
    "OracleAdapter",
    "ensure_oracle",
    "oracle_rng",
    "bernoulli_mask",
    # classic zoo
    "FaultFreeOracle",
    "StaticCrashOracle",
    "RandomOmissionOracle",
    "PartitionOracle",
    "SilentRoundsOracle",
    "ScriptedOracle",
    "GoodPeriodOracle",
    "KernelOnlyOracle",
    "CounterKernelOracle",
    # combinators
    "IntersectOracle",
    "UnionOracle",
    "SequenceOracle",
    "WindowSwitchOracle",
    # dynamic families
    "MobileOmissionOracle",
    "RotatingPartitionOracle",
    "BurstyLossOracle",
    "EventuallyStableCoordinatorOracle",
    # synthesis
    "SynthesisError",
    "CollectionOracle",
    "synthesize_collection",
    "synthesize_oracle",
    # batched environments
    "BatchOracle",
    "BroadcastBatchOracle",
    "PerReplicaBatchOracle",
    "RandomOmissionBatchOracle",
    "IntersectBatchOracle",
    "vectorize_oracles",
]
