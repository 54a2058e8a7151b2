"""Heard-of oracles: the composable environment/adversary layer.

In the HO model the environment is fully described by the heard-of sets it
produces, so adversaries form an *algebra*: base fault families compose
through set operations on heard-of sets and run in scripted phases.

* :mod:`~repro.adversaries.base` -- the set-native and mask-native oracle
  base classes and the :class:`~repro.engine.rng.SeededRng` plumbing (all
  oracle randomness flows through named sub-streams: ``oracle.loss``,
  ``oracle.partition``, ``oracle.mobile``, ``oracle.burst``,
  ``oracle.coordinator``, ``oracle.kernel``);
* :mod:`~repro.adversaries.classic` -- the original oracle zoo (fault-free,
  static crashes, omissions, partitions, scripted, good-period, kernel);
* :mod:`~repro.adversaries.combinators` -- intersect and sequence over
  arbitrary oracles;
* :mod:`~repro.adversaries.dynamic` -- mobile omissions, rotating
  partitions with churn, bursty (Gilbert-Elliott) link loss, and the
  eventually-stable coordinator;
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
    PartitionOracle,
    RandomOmissionOracle,
    ScriptedOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
)
from .combinators import (
    IntersectOracle,
    SequenceOracle,
)
from .dynamic import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
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
    "CounterKernelOracle",
    # combinators
    "IntersectOracle",
    "SequenceOracle",
    # dynamic families
    "MobileOmissionOracle",
    "RotatingPartitionOracle",
    "BurstyLossOracle",
    "EventuallyStableCoordinatorOracle",
    # batched environments
    "BatchOracle",
    "BroadcastBatchOracle",
    "PerReplicaBatchOracle",
    "RandomOmissionBatchOracle",
    "IntersectBatchOracle",
    "vectorize_oracles",
]
