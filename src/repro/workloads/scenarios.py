"""End-to-end consensus scenarios: the ``ho-stack``, ``chandra-toueg`` and ``aguilera`` cells.

Three stacks are compared under identical faults -- each on the step-level
system model's simulator, under the same :class:`StepEnvironment` and seed:

* the HO stack: OneThirdRule over Algorithm 2;
* the Chandra-Toueg ◇S baseline (written for crash-stop and reliable links);
* the Aguilera et al. ◇Su baseline (written for crash-recovery and lossy
  links).

The fault models are named after the Section 2.2 taxonomy scenarios they
instantiate: ``fault-free``, ``crash-stop``, ``crash-recovery`` and
``lossy`` (transmission faults without process crashes).  Every bad period
loses messages, so the run's own classification -- in
``extra["fault_class"]`` for every stack -- is what says whether a
failure-detector algorithm's assumptions hold.

The three are registered sweep scenarios; :func:`compare_stacks` runs them
side by side for ``examples/failure_detector_comparison.py`` and
``tests/claims/test_fd_gap.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..runner.registry import REGISTRY
from ..algorithms import OneThirdRule
from ..analysis.consensus_check import ConsensusVerdict, check_consensus
from ..analysis.metrics import RunMetrics, metrics_from_trace
from ..analysis.taxonomy import FaultConfiguration, classify
from ..failure_detectors import (
    EventProcess,
    EventProgram,
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
    build_aguilera_processes,
    build_chandra_toueg_processes,
)
from ..predicates import MonitorBank
from ..predimpl import build_down_stack
from ..predimpl.step_backend import FAULT_MODELS, StepEnvironment, build_step_simulator
from ..rounds.bitmask import mask_of
from ..sysmodel import SynchronyParams, SystemRunTrace, SystemSimulator


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


def _scenario_result(
    stack: str,
    fault_model: str,
    seed: int,
    simulator: SystemSimulator,
    values: List[int],
    scope: frozenset,
    extra: Dict[str, Any],
) -> ScenarioResult:
    """Check and measure one finished run; every stack classifies its faults here."""
    trace = simulator.trace
    fault_class = classify(FaultConfiguration.of_run(simulator)).value
    return ScenarioResult(
        stack=stack,
        fault_model=fault_model,
        n=simulator.n,
        seed=seed,
        verdict=check_consensus(trace, values, scope=scope),
        metrics=metrics_from_trace(trace, scope=scope),
        extra={"fault_class": fault_class, **extra},
    )


# --------------------------------------------------------------------------- #
# the HO stack
# --------------------------------------------------------------------------- #


def run_ho_stack(
    fault_model: str,
    n: int = 4,
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
        fault_model=fault_model,
        bad_period_length=bad_period_length, good_period_length=good_period_length,
    )
    values = _initial_values(n)
    scope = _scope_for(fault_model, n)
    bank: Optional[MonitorBank] = None
    observers: Sequence[Any] = ()
    if predicates:
        # completion_mask: under crash-stop the dead process stops
        # reporting forever, and waiting out the collator window on every
        # round would defer all monitoring to the end of the run -- rounds
        # complete once the surviving scope reported instead.
        scope_mask = mask_of(scope)
        bank = MonitorBank(
            n, predicates, pi0_mask=scope_mask, stop_after_held=stop_after_held,
            completion_mask=scope_mask,
        )
        observers = (bank,)
    elif stop_after_held is not None:
        raise ValueError("stop_after_held requires at least one monitored predicate")
    stack = build_down_stack(OneThirdRule(n), values, env.params(), observers=observers)
    simulator = build_step_simulator(env, stack.programs, stack.trace, seed)
    stop_when = None
    if bank is not None and stop_after_held is not None:
        stop_when = lambda: bank.stop_requested  # noqa: E731
    simulator.run(until=bad_period_length + good_period_length, stop_when=stop_when)
    extra: Dict[str, Any] = {}
    if bank is not None:
        extra["predicate_reports"] = bank.reports_json()
        extra["stopped_early"] = bank.stop_requested
        # Non-zero when a process reported a round after the surviving
        # scope already completed it: scoped predicates are unaffected, but
        # unscoped ones (p_otr, p_restr_otr) then carry anytime verdicts
        # rather than exact whole-collection ones.
        extra["predicate_late_records"] = bank.late_records
    return _scenario_result("ho-stack", fault_model, seed, simulator, values, scope, extra)


# --------------------------------------------------------------------------- #
# the failure-detector baselines, as step programs under the same environment
# --------------------------------------------------------------------------- #


def _run_fd_baseline(
    stack: str,
    build_processes: Callable[[int, List[Any], SynchronyParams], Sequence[EventProcess]],
    detector_class: Callable[[SystemSimulator, int], Any],
    fault_model: str,
    n: int,
    seed: int,
    bad_period_length: float,
    good_period_length: float,
) -> ScenarioResult:
    """Run a failure-detector consensus baseline under *fault_model*'s environment.

    The simulator, fault plan and seed are exactly the HO stack's; the
    detector stabilises when the environment's good period starts, and the
    run stops once the scope decided.
    """
    env = StepEnvironment(
        fault_model=fault_model,
        bad_period_length=bad_period_length, good_period_length=good_period_length,
    )
    values = _initial_values(n)
    trace = SystemRunTrace(n=n)
    programs = [EventProgram(process, trace) for process in build_processes(n, values, env.params())]
    simulator = build_step_simulator(env, programs, trace, seed)
    detector = detector_class(simulator, seed)
    for program in programs:
        program.detector = detector
    scope = _scope_for(fault_model, n)
    simulator.run(
        until=bad_period_length + good_period_length,
        stop_when=lambda: trace.all_decided(scope),
    )
    return _scenario_result(stack, fault_model, seed, simulator, values, scope, {})


def run_chandra_toueg(
    fault_model: str,
    n: int = 4,
    seed: int = 0,
    bad_period_length: float = 80.0,
    good_period_length: float = 400.0,
) -> ScenarioResult:
    """Run the Chandra-Toueg ◇S baseline under the given fault model.

    The algorithm assumes reliable links and crash-stop faults; when a run's
    bad period loses a message it waits for, it may block forever, which
    shows up as a termination failure -- never as a safety violation.
    """
    return _run_fd_baseline(
        "chandra-toueg", build_chandra_toueg_processes, EventuallyStrongDetector,
        fault_model, n, seed, bad_period_length, good_period_length,
    )


def run_aguilera(
    fault_model: str,
    n: int = 4,
    seed: int = 0,
    bad_period_length: float = 80.0,
    good_period_length: float = 400.0,
) -> ScenarioResult:
    """Run the Aguilera et al. ◇Su baseline under the given fault model."""
    return _run_fd_baseline(
        "aguilera", build_aguilera_processes, EventuallyStrongRecoveryDetector,
        fault_model, n, seed, bad_period_length, good_period_length,
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
