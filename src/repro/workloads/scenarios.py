"""End-to-end consensus scenarios used by the comparison benchmarks (E7-E9).

Three stacks are compared under identical fault models:

* the HO stack: OneThirdRule over Algorithm 2 (or Algorithm 4 over 3) on the
  step-level system model;
* the Chandra-Toueg ◇S baseline (crash-stop, reliable links) on the DES;
* the Aguilera et al. ◇Su baseline (crash-recovery, lossy links) on the DES.

The fault models are named after the Section 2.2 taxonomy scenarios they
instantiate: ``fault-free``, ``crash-stop`` (SP), ``crash-recovery`` (ST/DT)
and ``lossy`` (DT transmission faults without process crashes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..runner.registry import REGISTRY
from ..algorithms import OneThirdRule
from ..analysis.consensus_check import ConsensusVerdict, check_consensus
from ..analysis.metrics import RunMetrics, metrics_from_des, metrics_from_trace
from ..analysis.taxonomy import FaultConfiguration, classify
from ..des import ChannelConfig, EventSimulator
from ..failure_detectors import (
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
    build_aguilera_processes,
    build_chandra_toueg_processes,
)
from ..predicates import MonitorBank, build_monitor_bank
from ..predimpl import build_down_stack
from ..predimpl.step_backend import FAULT_MODELS, StepEnvironment, build_step_simulator


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one consensus scenario run."""

    stack: str
    fault_model: str
    n: int
    seed: int
    verdict: ConsensusVerdict
    metrics: RunMetrics
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.verdict.solved

    @property
    def safe(self) -> bool:
        return self.verdict.safe

    def row(self) -> str:
        """A fixed-width text row for benchmark reports."""
        latency = (
            "   -  "
            if self.metrics.last_decision_time is None
            else f"{self.metrics.last_decision_time:6.1f}"
        )
        return (
            f"{self.stack:<16} {self.fault_model:<15} n={self.n:<3} seed={self.seed:<3} "
            f"safe={'yes' if self.safe else 'NO '} "
            f"terminated={'yes' if self.verdict.termination else 'no '} "
            f"latency={latency} messages={self.metrics.messages_sent}"
        )


def _initial_values(n: int) -> List[int]:
    return [10 * (p + 1) for p in range(n)]


def _scope_for(fault_model: str, n: int) -> frozenset:
    """Processes required to decide: crashed-forever processes are excluded."""
    if fault_model == "crash-stop":
        return frozenset(range(n)) - {n - 1}
    return frozenset(range(n))


# --------------------------------------------------------------------------- #
# the HO stack on the step-level system model
# --------------------------------------------------------------------------- #


def run_ho_stack(
    fault_model: str,
    n: int = 4,
    phi: float = 1.0,
    delta: float = 2.0,
    seed: int = 0,
    bad_period_length: float = 80.0,
    good_period_length: float = 400.0,
    predicates: Optional[Sequence[str]] = None,
    stop_after_held: Optional[int] = None,
) -> ScenarioResult:
    """Run OneThirdRule over Algorithm 2 under the given fault model.

    The same algorithm and the same predicate implementation are used for
    every fault model; only the fault schedule differs -- this is the
    Section 3.3 claim made executable.

    *predicates* attaches streaming monitors
    (:data:`repro.predicates.MONITOR_NAMES`) to the shared round engine of
    the predicate-implementation stack, scoped to the surviving processes;
    their reports land in ``extra["predicate_reports"]``.  *stop_after_held*
    ends the step-level simulation early once any monitored predicate's
    good condition held for that many consecutive rounds.  Monitored rounds
    complete once the surviving scope reported them (so monitoring is live
    even when a crashed process never reports again); a laggard's record
    arriving after that is dropped and counted in
    ``extra["predicate_late_records"]`` -- when non-zero, the verdicts of
    the *unscoped* predicates (``p_otr``, ``p_restr_otr``) are anytime
    approximations rather than exact whole-collection verdicts.
    """
    # The environment validates the fault model.
    env = StepEnvironment(
        fault_model=fault_model, phi=phi, delta=delta,
        bad_period_length=bad_period_length, good_period_length=good_period_length,
    )
    values = _initial_values(n)
    scope = _scope_for(fault_model, n)
    bank: Optional[MonitorBank] = None
    observers: Sequence[Any] = ()
    if predicates:
        # completion_scope: under crash-stop the dead process stops
        # reporting forever, and waiting out the collator window on every
        # round would defer all monitoring to the end of the run -- rounds
        # complete once the surviving scope reported instead.
        bank = build_monitor_bank(
            n, predicates, pi0=scope, stop_after_held=stop_after_held,
            completion_scope=scope,
        )
        observers = (bank,)
    elif stop_after_held is not None:
        raise ValueError("stop_after_held requires at least one monitored predicate")
    stack = build_down_stack(OneThirdRule(n), values, env.params(), observers=observers)
    simulator = build_step_simulator(env, stack.programs, stack.trace, seed)
    stop_when = None
    if bank is not None and stop_after_held is not None:
        stop_when = lambda: bank.stop_requested  # noqa: E731
    trace = simulator.run(until=bad_period_length + good_period_length, stop_when=stop_when)
    verdict = check_consensus(trace, values, scope=scope)
    configuration = FaultConfiguration(
        n=n,
        schedule=simulator.fault_schedule,
        lossy_links=simulator.network.bad_behavior.loss_probability > 0.0,
    )
    extra: Dict[str, Any] = {"fault_class": classify(configuration).value}
    if bank is not None:
        extra["predicate_reports"] = bank.reports_json()
        extra["stopped_early"] = bank.stop_requested
        # Non-zero when a process reported a round after the surviving
        # scope already completed it: scoped predicates are unaffected, but
        # unscoped ones (p_otr, p_restr_otr) then carry anytime verdicts
        # rather than exact whole-collection ones.
        extra["predicate_late_records"] = bank.late_records
    return ScenarioResult(
        stack="ho-stack",
        fault_model=fault_model,
        n=n,
        seed=seed,
        verdict=verdict,
        metrics=metrics_from_trace(trace, scope=scope),
        extra=extra,
    )


# --------------------------------------------------------------------------- #
# failure-detector baselines on the DES
# --------------------------------------------------------------------------- #


def _des_fault_schedule(fault_model: str, n: int) -> Dict[str, Dict[int, float]]:
    if fault_model == "crash-stop":
        return {"crash_times": {n - 1: 5.0}, "recovery_times": {}}
    if fault_model == "crash-recovery":
        crash_times = {p: 3.0 + 2.0 * p for p in range(n)}
        recovery_times = {p: 20.0 + 2.0 * p for p in range(n)}
        return {"crash_times": crash_times, "recovery_times": recovery_times}
    return {"crash_times": {}, "recovery_times": {}}


def run_chandra_toueg(
    fault_model: str,
    n: int = 4,
    seed: int = 0,
    stabilization_time: float = 30.0,
    horizon: float = 400.0,
) -> ScenarioResult:
    """Run the Chandra-Toueg ◇S baseline under the given fault model.

    The algorithm assumes reliable links and crash-stop faults; running it
    under ``lossy`` or ``crash-recovery`` exercises exactly the limitation
    the paper describes (it may block forever, which shows up as a
    termination failure -- never as a safety violation).
    """
    if fault_model not in FAULT_MODELS:
        raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")
    values = _initial_values(n)
    processes = build_chandra_toueg_processes(n, values)
    faults = _des_fault_schedule(fault_model, n)
    channel = ChannelConfig(
        loss_probability=0.3 if fault_model in ("lossy", "crash-recovery") else 0.0
    )
    simulator = EventSimulator(
        processes,
        channel=channel,
        crash_times=faults["crash_times"],
        recovery_times=faults["recovery_times"],
        seed=seed,
    )
    simulator.register_failure_detector(
        "default", EventuallyStrongDetector(stabilization_time=stabilization_time, seed=seed + 1)
    )
    scope = _scope_for(fault_model, n)
    simulator.run_until_all_decided(until=horizon, scope=scope)
    verdict = check_consensus(simulator, values, scope=scope)
    return ScenarioResult(
        stack="chandra-toueg",
        fault_model=fault_model,
        n=n,
        seed=seed,
        verdict=verdict,
        metrics=metrics_from_des(simulator, scope=scope),
    )


def run_aguilera(
    fault_model: str,
    n: int = 4,
    seed: int = 0,
    stabilization_time: float = 40.0,
    horizon: float = 600.0,
) -> ScenarioResult:
    """Run the Aguilera et al. ◇Su baseline under the given fault model."""
    if fault_model not in FAULT_MODELS:
        raise ValueError(f"unknown fault model {fault_model!r}; expected one of {FAULT_MODELS}")
    values = _initial_values(n)
    processes = build_aguilera_processes(n, values)
    faults = _des_fault_schedule(fault_model, n)
    channel = ChannelConfig(
        loss_probability=0.3 if fault_model in ("lossy", "crash-recovery") else 0.0
    )
    simulator = EventSimulator(
        processes,
        channel=channel,
        crash_times=faults["crash_times"],
        recovery_times=faults["recovery_times"],
        seed=seed,
    )
    simulator.register_failure_detector(
        "default",
        EventuallyStrongRecoveryDetector(stabilization_time=stabilization_time, seed=seed + 1),
    )
    scope = _scope_for(fault_model, n)
    simulator.run_until_all_decided(until=horizon, scope=scope)
    verdict = check_consensus(simulator, values, scope=scope)
    return ScenarioResult(
        stack="aguilera",
        fault_model=fault_model,
        n=n,
        seed=seed,
        verdict=verdict,
        metrics=metrics_from_des(simulator, scope=scope),
    )


#: the three stacks, in report order, as registered with the runner.
STACKS = ("ho-stack", "chandra-toueg", "aguilera")

REGISTRY.register_scenario("ho-stack", run_ho_stack, monitorable=True)
REGISTRY.register_scenario("chandra-toueg", run_chandra_toueg)
REGISTRY.register_scenario("aguilera", run_aguilera)
for _fault_model in FAULT_MODELS:
    REGISTRY.register_fault_model(_fault_model)


def compare_stacks(
    fault_models: Sequence[str] = FAULT_MODELS, n: int = 4, seed: int = 0
) -> List[ScenarioResult]:
    """Run every stack under every fault model (the E8 comparison matrix).

    The grid goes through the :mod:`repro.runner` sweep executor inline,
    which keeps the full in-process ``ScenarioResult`` of every cell attached.
    """
    from ..runner.sweep import RunSpec, run_sweep

    specs = [
        RunSpec.make(stack, fault_model, seed, n=n)
        for fault_model in fault_models
        for stack in STACKS
    ]
    results: List[ScenarioResult] = []
    for record in run_sweep(specs).records:
        if record.result is None:
            raise RuntimeError(
                f"{record.scenario} under {record.fault_model} failed: {record.error}"
            )
        results.append(record.result)
    return results


__all__ = [
    "STACKS",
    "FAULT_MODELS",
    "ScenarioResult",
    "run_ho_stack",
    "run_chandra_toueg",
    "run_aguilera",
    "compare_stacks",
]
