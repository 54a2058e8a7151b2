"""Sections 2.2-2.3: the SP / ST / DP / DT fault taxonomy and who covers which class.

One representative fault configuration per class (static/dynamic x
permanent/transient) is classified, then the HO stack and the Chandra-Toueg
baseline run under every scenario, and their verdicts are keyed on the
run's own fault class.  The claim: failure detectors are a good abstraction
for SP only, while communication predicates handle every benign class
uniformly, because they are phrased in terms of transmission faults
(``APPLICABILITY`` in :mod:`repro.analysis.taxonomy` is the table).  Every
scenario's bad period loses messages, so each faulty scenario is DT; the
SP witness is the crash-stop run on loss-free links, built here.
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
from repro.algorithms import OneThirdRule
from repro.analysis.consensus_check import check_consensus
from repro.failure_detectors import (
    EventProgram,
    EventuallyStrongDetector,
    build_chandra_toueg_processes,
)
from repro.predimpl import build_down_stack
from repro.sysmodel import (
    BadPeriodNetwork,
    FaultSchedule,
    GoodPeriodKind,
    PeriodSchedule,
    SynchronyParams,
    SystemRunTrace,
    SystemSimulator,
)
from repro.workloads import FAULT_MODELS, run_chandra_toueg, run_ho_stack

N = 4
PARAMS = SynchronyParams(phi=1.0, delta=2.0)

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

@pytest.mark.parametrize("expected", CONFIGURATIONS, ids=lambda c: c.name)
def test_classification_matches_construction(expected):
    computed = classify(CONFIGURATIONS[expected])
    print(
        f"{expected.value:<20} classified as {computed.value:<20} "
        f"FD applicable={failure_detectors_applicable(computed)!s:<6} "
        f"predicates applicable={communication_predicates_applicable(computed)}"
    )
    assert computed is expected


@pytest.mark.parametrize("fault_model", FAULT_MODELS)
def test_empirical_applicability(fault_model):
    """The HO stack solves every class; Chandra-Toueg exactly the predicted ones."""
    ho = run_ho_stack(fault_model, n=N, seed=0)
    ct = run_chandra_toueg(fault_model, n=N, seed=0)
    fault_class = FaultClass(ct.extra["fault_class"])
    print(
        f"{fault_model:<15} {fault_class.name:<5} HO stack solves={ho.solved!s:<6} "
        f"CT solves={ct.solved!s:<6} "
        f"FD predicted={failure_detectors_applicable(fault_class)!s:<6} "
        f"predicates predicted={communication_predicates_applicable(fault_class)}"
    )
    assert ho.extra["fault_class"] == ct.extra["fault_class"]
    assert ho.solved
    assert ct.safe
    assert ct.solved == failure_detectors_applicable(fault_class)


def _loss_free_crash_stop(programs, trace, seed):
    """The crash-stop scenario's schedule and crash, on links that lose nothing."""
    return SystemSimulator(
        programs,
        PARAMS,
        PeriodSchedule.single_good_period(
            N, start=80.0, length=400.0, kind=GoodPeriodKind.PI0_DOWN, pi0=range(N - 1)
        ),
        fault_schedule=FaultSchedule.crash_stop([(N - 1, 20.0)]),
        bad_network=BadPeriodNetwork(loss_probability=0.0, min_delay=1.0, max_delay=30.0),
        seed=seed,
        trace=trace,
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_sp_witness(seed):
    """On reliable links the crash-stop run is SP, and both stacks solve it."""
    values = [10 * (p + 1) for p in range(N)]
    scope = range(N - 1)
    trace = SystemRunTrace(n=N)
    programs = [
        EventProgram(process, trace)
        for process in build_chandra_toueg_processes(N, values, PARAMS)
    ]
    simulator = _loss_free_crash_stop(programs, trace, seed)
    detector = EventuallyStrongDetector(simulator, seed)
    for program in programs:
        program.detector = detector
    simulator.run(480.0, stop_when=lambda: trace.all_decided(scope))
    stack = build_down_stack(OneThirdRule(N), values, PARAMS)
    ho_trace = _loss_free_crash_stop(stack.programs, stack.trace, seed).run(480.0)
    assert classify(FaultConfiguration.of_run(simulator)) is FaultClass.SP
    assert failure_detectors_applicable(FaultClass.SP)
    assert check_consensus(trace, values, scope=scope).solved
    assert check_consensus(ho_trace, values, scope=scope).solved
