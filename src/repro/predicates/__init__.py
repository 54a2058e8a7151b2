"""Communication predicates: whole-collection checkers and streaming monitors.

The paper's central object -- the communication predicate of a ``<A, P>``
pair (Section 3.1, Table 1) -- lives here in two dual forms:

* :mod:`repro.predicates.static` -- the classic *whole-collection* checkers,
  evaluated over a fully recorded :class:`~repro.core.types.HOCollection`
  (``P.holds(collection)``);
* :mod:`repro.predicates.monitors` -- *streaming* monitors that consume one
  round of bitmask heard-of sets at a time in O(window * n) memory, reach
  the same verdicts online, accumulate hold/violation run-lengths into
  compact :class:`~repro.predicates.reports.PredicateReport` objects, and
  drive the early-stop rule through the round engine's observer hook;
* :mod:`repro.predicates.batch` -- the replica-vectorised duals of the
  streaming monitors, consuming ``(R, n, ceil(n/64))`` uint64 mask arrays
  for all R replicas of a batch at once (imported lazily by the batch
  execution backend, hence not re-exported here).
"""

from .monitors import (
    DEFAULT_WINDOW,
    MONITOR_NAMES,
    MonitorBank,
    P2OtrMonitor,
    P11OtrMonitor,
    PKernelMonitor,
    POtrMonitor,
    PRestrOtrMonitor,
    PSuMonitor,
    PredicateMonitor,
    RoundCollator,
    build_monitor,
    build_monitor_bank,
    canonical_predicate_name,
    monitor_collection,
)
from .reports import PredicateReport
from .static import (
    And,
    CommunicationPredicate,
    ExistsPi0,
    MajorityEveryRound,
    NonEmptyKernelEveryRound,
    Not,
    Or,
    P2Otr,
    P11Otr,
    PKernel,
    POtr,
    PRestrOtr,
    PSpaceUniform,
    PerRoundCardinality,
    TruePredicate,
    UniformRoundExists,
    exists_p2otr,
    exists_p11otr,
    find_pk_window,
    find_psu_window,
    otr_threshold,
    pk_holds,
    psu_holds,
)

__all__ = [
    # whole-collection checkers
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
    # streaming monitors
    "DEFAULT_WINDOW",
    "MONITOR_NAMES",
    "PredicateMonitor",
    "POtrMonitor",
    "PRestrOtrMonitor",
    "PSuMonitor",
    "PKernelMonitor",
    "P2OtrMonitor",
    "P11OtrMonitor",
    "RoundCollator",
    "MonitorBank",
    "monitor_collection",
    "canonical_predicate_name",
    "build_monitor",
    "build_monitor_bank",
    # reports
    "PredicateReport",
]
