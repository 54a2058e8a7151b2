"""The alternative fault taxonomy of Section 2.2 (SP / ST / DP / DT).

The paper organises benign process faults along two axes:

* *permanent* (P) vs. *transient* (T) -- does a fault, once it hits a
  process, persist forever?
* *static* (S) vs. *dynamic* (D) -- can faults hit only a fixed subset of at
  most ``f < n`` processes, or any process?

yielding four classes: SP (crash-stop), ST (e.g. send/receive omissions on a
fixed subset, or crash-recovery where some processes never crash), DP
(everybody may fail permanently) and DT (everybody may fail transiently --
the class transmission faults capture uniformly).

This module classifies a concrete fault configuration -- a
:class:`~repro.sysmodel.faults.FaultSchedule` plus link-loss information --
into those classes, and states which approaches (failure detectors vs.
communication predicates) are applicable to each class.  Benchmark E9 uses
it to build the applicability matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet

from ..core.types import ProcessId
from ..sysmodel.faults import FaultKind, FaultSchedule

if TYPE_CHECKING:
    from ..sysmodel.simulator import SystemSimulator


class FaultClass(enum.Enum):
    """The four classes of the Section 2.2 taxonomy, plus the fault-free case."""

    NONE = "fault-free"
    SP = "static-permanent"
    ST = "static-transient"
    DP = "dynamic-permanent"
    DT = "dynamic-transient"


@dataclass(frozen=True)
class FaultConfiguration:
    """A fault configuration to classify.

    * *schedule*: the timed crash / recovery events;
    * *lossy_links*: whether links may lose messages (a transient,
      transmission-level fault);
    * *omission_processes*: processes suffering send/receive omissions, if
      any (transient process faults);
    * *n*: system size.
    """

    n: int
    schedule: FaultSchedule
    lossy_links: bool = False
    omission_processes: FrozenSet[ProcessId] = frozenset()

    @classmethod
    def of_run(cls, simulator: "SystemSimulator") -> "FaultConfiguration":
        """The configuration of a step-level run: its fault schedule and bad-period links."""
        return cls(
            n=simulator.n,
            schedule=simulator.fault_schedule,
            lossy_links=simulator.network.bad_behavior.loss_probability > 0.0,
        )

    def crashed_processes(self) -> FrozenSet[ProcessId]:
        """Processes that crash at least once."""
        return frozenset(
            event.process
            for event in self.schedule.events
            if event.kind is FaultKind.CRASH
        )

    def recovering_processes(self) -> FrozenSet[ProcessId]:
        """Processes that recover at least once."""
        return frozenset(
            event.process
            for event in self.schedule.events
            if event.kind is FaultKind.RECOVER
        )


def classify(configuration: FaultConfiguration) -> FaultClass:
    """Classify a fault configuration into the Section 2.2 taxonomy.

    The classification follows the paper's reading:

    * no faults at all -> ``NONE``;
    * only permanent crashes of a strict subset -> ``SP`` (the crash-stop
      model);
    * transient faults (recoveries, omissions, link loss) confined to a
      strict subset of processes, with the rest fault-free -> ``ST``;
    * permanent crashes that may hit every process -> ``DP``;
    * transient faults that may hit every process (crash-recovery where
      everybody may crash, or link loss, which can deprive *any* process of
      *any* message) -> ``DT``.
    """
    faulty = (
        configuration.crashed_processes()
        | configuration.omission_processes
    )
    transient = (
        bool(configuration.recovering_processes())
        or bool(configuration.omission_processes)
        or configuration.lossy_links
    )
    if not faulty and not configuration.lossy_links:
        return FaultClass.NONE
    # Link loss is a transmission fault that can hit any process pair: dynamic.
    dynamic = configuration.lossy_links or len(faulty) >= configuration.n
    if transient:
        return FaultClass.DT if dynamic else FaultClass.ST
    return FaultClass.DP if dynamic else FaultClass.SP


#: Which abstractions handle which fault class (the argument of Sections 1-2).
#: Failure detectors assume permanent crash faults on a static subset (SP);
#: communication predicates handle every benign class uniformly because they
#: are stated over transmission faults.
APPLICABILITY: Dict[FaultClass, Dict[str, bool]] = {
    FaultClass.NONE: {"failure-detectors": True, "communication-predicates": True},
    FaultClass.SP: {"failure-detectors": True, "communication-predicates": True},
    FaultClass.ST: {"failure-detectors": False, "communication-predicates": True},
    FaultClass.DP: {"failure-detectors": False, "communication-predicates": True},
    FaultClass.DT: {"failure-detectors": False, "communication-predicates": True},
}


def failure_detectors_applicable(fault_class: FaultClass) -> bool:
    """Whether the classical ◇S failure-detector approach covers *fault_class*."""
    return APPLICABILITY[fault_class]["failure-detectors"]


def communication_predicates_applicable(fault_class: FaultClass) -> bool:
    """Whether the communication-predicate approach covers *fault_class*."""
    return APPLICABILITY[fault_class]["communication-predicates"]


__all__ = [
    "FaultClass",
    "FaultConfiguration",
    "classify",
    "APPLICABILITY",
    "failure_detectors_applicable",
    "communication_predicates_applicable",
]
