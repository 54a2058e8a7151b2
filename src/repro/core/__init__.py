"""Core of the Heard-Of (HO) model: rounds, algorithms and the HO machine.

The subpackage implements the paper's primary abstraction (Section 3):

* :mod:`repro.core.types` -- process ids, rounds, heard-of sets and traces;
* :mod:`repro.core.algorithm` -- the ``<S_p^r, T_p^r>`` algorithm interface;
* :mod:`repro.core.machine` -- a pure round-level executor (HO machine).

Communication predicates (Table 1 and Section 4.2) live in
:mod:`repro.predicates`, the heard-of oracles playing the environment in
:mod:`repro.adversaries`; both build on :mod:`repro.core.types`.
"""

from .algorithm import ConsensusAlgorithm, HOAlgorithm
from .machine import HOMachine, HOOracle
from .types import (
    DecisionRecord,
    HOCollection,
    HOSet,
    ProcessId,
    Round,
    RoundRecord,
    RunTrace,
    all_processes,
    validate_process_subset,
)

__all__ = [
    # types
    "ProcessId",
    "Round",
    "HOSet",
    "HOCollection",
    "RoundRecord",
    "DecisionRecord",
    "RunTrace",
    "all_processes",
    "validate_process_subset",
    # algorithm interface
    "HOAlgorithm",
    "ConsensusAlgorithm",
    # machine
    "HOMachine",
    "HOOracle",
]
