"""Sections 2.2-2.3: the SP / ST / DP / DT fault taxonomy and who covers which class.

One representative fault configuration per class (static/dynamic x
permanent/transient) is classified, then the HO stack and the Chandra-Toueg
baseline run under the matching scenario.  The claim: failure detectors are
a good abstraction for SP only, while communication predicates handle every
benign class uniformly, because they are phrased in terms of transmission
faults (``APPLICABILITY`` in :mod:`repro.analysis.taxonomy` is the table).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    FaultClass,
    FaultConfiguration,
    classify,
    communication_predicates_applicable,
    failure_detectors_applicable,
)
from repro.sysmodel import FaultSchedule
from repro.workloads import run_chandra_toueg, run_ho_stack

N = 4

#: one representative fault configuration per taxonomy class
CONFIGURATIONS = {
    FaultClass.NONE: FaultConfiguration(n=N, schedule=FaultSchedule.none()),
    FaultClass.SP: FaultConfiguration(n=N, schedule=FaultSchedule.crash_stop([(N - 1, 10.0)])),
    FaultClass.ST: FaultConfiguration(
        n=N, schedule=FaultSchedule.crash_recovery([(0, 10.0, 30.0)])
    ),
    FaultClass.DP: FaultConfiguration(
        n=N, schedule=FaultSchedule.crash_stop([(p, 10.0 + p) for p in range(N)])
    ),
    FaultClass.DT: FaultConfiguration(
        n=N,
        schedule=FaultSchedule.crash_recovery([(p, 10.0 + p, 40.0 + p) for p in range(N)]),
        lossy_links=True,
    ),
}

#: the executable scenario (fault-model name) of the classes that have one
SCENARIO_OF_CLASS = {
    FaultClass.NONE: "fault-free",
    FaultClass.SP: "crash-stop",
    FaultClass.ST: "crash-recovery",
    FaultClass.DT: "crash-recovery",
}


@pytest.mark.parametrize("expected", CONFIGURATIONS, ids=lambda c: c.name)
def test_classification_matches_construction(expected):
    computed = classify(CONFIGURATIONS[expected])
    print(
        f"{expected.value:<20} classified as {computed.value:<20} "
        f"FD applicable={failure_detectors_applicable(computed)!s:<6} "
        f"predicates applicable={communication_predicates_applicable(computed)}"
    )
    assert computed is expected


@pytest.mark.parametrize("fault_class", SCENARIO_OF_CLASS, ids=lambda c: c.name)
def test_empirical_applicability(fault_class):
    """The HO stack solves every class; Chandra-Toueg exactly the predicted ones."""
    fault_model = SCENARIO_OF_CLASS[fault_class]
    ho = run_ho_stack(fault_model, n=N, seed=0)
    ct = run_chandra_toueg(fault_model, n=N, seed=0)
    print(
        f"{fault_class.name:<5} {fault_model:<15} HO stack solves={ho.solved!s:<6} "
        f"CT solves={ct.solved!s:<6} "
        f"FD predicted={failure_detectors_applicable(fault_class)!s:<6} "
        f"predicates predicted={communication_predicates_applicable(fault_class)}"
    )
    assert ho.solved
    if failure_detectors_applicable(fault_class):
        assert ct.solved
    else:
        assert not ct.verdict.termination
        assert ct.safe
