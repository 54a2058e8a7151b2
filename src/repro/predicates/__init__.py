"""Communication predicates: whole-collection checkers and streaming monitors.

The paper's central object -- the communication predicate of a ``<A, P>``
pair (Section 3.1, Table 1) -- lives here in two forms:

* :mod:`repro.predicates.static` -- the paper's *whole-collection*
  definitions, evaluated over a fully recorded
  :class:`~repro.core.types.HOCollection` (``P.holds(collection)``);
* :mod:`repro.predicates.batch` -- the *streaming* monitors, vectorised
  over R replicas: they consume one round of ``(R, n, ceil(n/64))`` uint64
  heard-of masks at a time in O(n) state per replica, reach the same
  verdicts online and accumulate hold/violation run-lengths into compact
  :class:`~repro.predicates.reports.PredicateReport` objects.

:mod:`repro.predicates.monitors` runs those monitors over a single run: its
:class:`MonitorBank` collates the round engine's record stream into
completed rounds, feeds them to the monitors at R = 1 and drives the
early-stop rule through the engine's observer hook.
"""

from .batch import MONITOR_NAMES, canonical_predicate_name, canonical_predicate_names
from .monitors import DEFAULT_WINDOW, MonitorBank, RoundCollator
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
    "RoundCollator",
    "MonitorBank",
    "canonical_predicate_name",
    "canonical_predicate_names",
    # reports
    "PredicateReport",
]
