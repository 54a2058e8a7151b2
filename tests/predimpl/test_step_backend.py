"""The step-path execution backends: lowering bit-identity and degradation.

``step-batch`` is specified against ``step-scalar`` exactly as ``batch``
is against ``scalar``: the fault-free down-good lowering must reproduce
the scalar step path's outcomes *including per-round fingerprints*, and
every non-lowerable cell must degrade per cell with a recorded reason.
"""

from __future__ import annotations

import pytest

from repro.adversaries import FaultFreeOracle
from repro.algorithms import OneThirdRule
from repro.predicates import MONITOR_NAMES
from repro.predimpl.step_backend import (
    ARBITRARY_GOOD,
    DOWN_GOOD,
    FAULT_MODELS,
    BatchStepBackend,
    ScalarStepBackend,
    StepEnvironment,
    step_horizon_rounds,
)
from repro.rounds.backend import (
    MonitorSpec,
    ReplicaBatch,
    ReplicaTask,
    backend_names,
    get_backend,
)
from repro.rounds.bitmask import mask_of

from ._golden_step import (
    SEEDS,
    SIZES,
    STACKS,
    cell_key,
    compute_traces,
    load_goldens,
    run_cell,
    shuffled_values,
)


def make_batch(env, n, seeds, max_rounds=None, **kwargs):
    if max_rounds is None:
        max_rounds = step_horizon_rounds(env, n)
    tasks = [
        ReplicaTask(seed=seed, oracle=env, initial_values=shuffled_values(n, seed))
        for seed in seeds
    ]
    kwargs.setdefault("fingerprints", True)
    return ReplicaBatch(
        n=n, algorithm=OneThirdRule(n), tasks=tasks, max_rounds=max_rounds, **kwargs
    )


class TestRegistration:
    def test_step_backends_are_registered(self):
        names = backend_names()
        assert "step-scalar" in names
        assert "step-batch" in names


class TestStepEnvironment:
    def test_rejects_unknown_kind_and_fault_model(self):
        with pytest.raises(ValueError):
            StepEnvironment(kind="sideways")
        with pytest.raises(ValueError):
            StepEnvironment(fault_model="byzantine")
        with pytest.raises(ValueError):
            StepEnvironment(f=-1)

    def test_the_fault_model_axis_is_spelled_once(self):
        from repro import workloads

        assert workloads.FAULT_MODELS is FAULT_MODELS

    def test_round_timeout_follows_the_stack(self):
        down = StepEnvironment(kind=DOWN_GOOD)
        arbitrary = StepEnvironment(kind=ARBITRARY_GOOD)
        # Algorithm 3's receive budget (2n+1 steps) exceeds Algorithm 2's
        # (n+2 steps) for every n > 1.
        assert arbitrary.round_timeout(4) > down.round_timeout(4)

    def test_horizon_covers_the_time_budget(self):
        env = StepEnvironment(fault_model="crash-stop")
        n = 4
        rounds = step_horizon_rounds(env, n)
        budget = env.bad_period_length + env.good_period_length
        assert rounds * (env.round_timeout(n) + 1) >= budget


class TestScalarStepBackend:
    def test_non_step_oracle_is_rejected(self):
        batch = ReplicaBatch(
            n=2,
            algorithm=OneThirdRule(2),
            tasks=[ReplicaTask(seed=0, oracle=object(), initial_values=[1, 2])],
            max_rounds=4,
        )
        with pytest.raises(TypeError):
            ScalarStepBackend().run(batch)

    def test_empty_scope_runs_zero_rounds(self):
        env = StepEnvironment()
        batch = make_batch(env, 3, [0], scope_mask=0)
        (outcome,) = ScalarStepBackend().run(batch)
        assert outcome.rounds_executed == 0
        assert outcome.decisions == {}
        assert outcome.messages_sent == 0
        assert outcome.fingerprint

    def test_message_accounting_is_round_level(self):
        env = StepEnvironment()
        n = 4
        (outcome,) = ScalarStepBackend().run(make_batch(env, n, [0]))
        assert outcome.decisions
        assert outcome.messages_sent == n * n * outcome.rounds_executed
        # Fault-free and always good: every executed round heard everyone.
        assert outcome.messages_delivered == n * n * outcome.rounds_executed

    def test_crash_stop_projection_respects_the_scope(self):
        env = StepEnvironment(fault_model="crash-stop")
        n = 4
        scope = range(n - 1)
        (outcome,) = ScalarStepBackend().run(
            make_batch(env, n, [0], scope_mask=mask_of(scope))
        )
        assert set(outcome.decisions) >= set(scope)
        assert outcome.rounds_executed >= max(
            outcome.decision_rounds[p] for p in scope
        )

    def test_arbitrary_stack_decides(self):
        env = StepEnvironment(kind=ARBITRARY_GOOD, f=1)
        (outcome,) = ScalarStepBackend().run(make_batch(env, 4, [0]))
        assert set(outcome.decisions) == set(range(4))


class TestLoweringBitIdentity:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("run_full_horizon", [False, True])
    def test_fault_free_down_cell_lowers_bit_identically(self, n, run_full_horizon):
        env = StepEnvironment()
        seeds = list(range(4))
        rounds = 12
        scalar = get_backend("step-scalar").run(
            make_batch(env, n, seeds, rounds, run_full_horizon=run_full_horizon)
        )
        backend = get_backend("step-batch")
        batched = backend.run(
            make_batch(env, n, seeds, rounds, run_full_horizon=run_full_horizon)
        )
        assert backend.last_fallback_reason is None
        assert scalar == batched
        assert all(outcome.fingerprint for outcome in scalar)
        if not run_full_horizon:
            assert all(outcome.decisions for outcome in scalar)


#: every predicate alone, and the six together in one bank.
MONITOR_SETS = [(name,) for name in MONITOR_NAMES] + [tuple(MONITOR_NAMES)]


def monitored_batch(oracle_of, n, predicates, stop_after_held, run_full_horizon):
    """A monitored 12-round cell over one ``oracle_of(n)``, three seeds."""
    oracle = oracle_of(n)
    tasks = [
        ReplicaTask(seed=seed, oracle=oracle, initial_values=shuffled_values(n, seed))
        for seed in range(3)
    ]
    return ReplicaBatch(
        n=n,
        algorithm=OneThirdRule(n),
        tasks=tasks,
        max_rounds=12,
        run_full_horizon=run_full_horizon,
        fingerprints=True,
        monitor_spec=MonitorSpec(
            predicates=predicates,
            pi0_mask=mask_of(range(n)),
            stop_after_held=stop_after_held,
            completion_scope=True,
        ),
    )


@pytest.mark.parametrize("n", [3, 4, 7, 10])
@pytest.mark.parametrize("stop_after_held", [None, 1, 3])
@pytest.mark.parametrize("run_full_horizon", [False, True])
class TestMonitoredFaultFreeCells:
    """A fault-free step cell's reports cover exactly the rounds it executed.

    The simulator stops a full-horizon run only after one process has
    recorded round ``max_rounds + 1``; that half-reported round used to be
    drained as a bad one (``rounds_observed`` 13 of 12, ``holds`` False for
    an always-good run).
    """

    def test_step_scalar_reports_equal_the_round_level_monitors(
        self, n, stop_after_held, run_full_horizon
    ):
        for predicates in MONITOR_SETS:
            shape = (predicates, stop_after_held, run_full_horizon)
            stepped = ScalarStepBackend().run(
                monitored_batch(lambda n: StepEnvironment(), n, *shape)
            )
            rounds = get_backend("scalar").run(monitored_batch(FaultFreeOracle, n, *shape))
            assert stepped == rounds, predicates
            for outcome in stepped:
                for report in outcome.predicate_reports.values():
                    assert report["rounds_observed"] == outcome.rounds_executed

    def test_monitored_cell_lowers_bit_identically(
        self, n, stop_after_held, run_full_horizon
    ):
        backend = BatchStepBackend()
        for predicates in MONITOR_SETS:
            shape = (predicates, stop_after_held, run_full_horizon)
            lowered = backend.run(monitored_batch(lambda n: StepEnvironment(), n, *shape))
            assert backend.last_fallback_reason is None
            assert lowered == ScalarStepBackend().run(
                monitored_batch(lambda n: StepEnvironment(), n, *shape)
            ), predicates


class TestDegradation:
    def degrade(self, batch):
        backend = BatchStepBackend()
        outcomes = backend.run(batch)
        assert backend.last_fallback_reason is not None
        return backend.last_fallback_reason, outcomes

    @pytest.mark.parametrize("fault_model", ["crash-stop", "crash-recovery", "lossy"])
    def test_faulted_cells_degrade_with_reason(self, fault_model):
        env = StepEnvironment(fault_model=fault_model)
        scope = range(3) if fault_model == "crash-stop" else range(4)
        reason, outcomes = self.degrade(
            make_batch(env, 4, [0, 1], scope_mask=mask_of(scope))
        )
        assert fault_model in reason
        scalar = ScalarStepBackend().run(
            make_batch(env, 4, [0, 1], scope_mask=mask_of(scope))
        )
        assert outcomes == scalar

    def test_arbitrary_stack_degrades_with_reason(self):
        env = StepEnvironment(kind=ARBITRARY_GOOD, f=1)
        reason, outcomes = self.degrade(make_batch(env, 4, [0]))
        assert "arbitrary-good" in reason
        assert outcomes[0].decisions

    def test_mixed_environments_degrade(self):
        n = 3
        tasks = [
            ReplicaTask(
                seed=seed,
                oracle=StepEnvironment(phi=phi),
                initial_values=shuffled_values(n, seed),
            )
            for seed, phi in ((0, 1.0), (1, 2.0))
        ]
        backend = BatchStepBackend()
        backend.run(ReplicaBatch(n=n, algorithm=OneThirdRule(n), tasks=tasks, max_rounds=8))
        assert "disagree" in backend.last_fallback_reason

    def test_lowerable_cell_records_no_reason(self):
        """The one shape step-batch lowers is not degraded, and equals step-scalar."""
        env = StepEnvironment()
        backend = BatchStepBackend()
        outcomes = backend.run(make_batch(env, 4, [0]))
        assert backend.last_fallback_reason is None
        assert outcomes == ScalarStepBackend().run(make_batch(env, 4, [0]))


class TestGoldenStepFingerprints:
    """The event loop below ``step-scalar`` is pinned per seed, below the aggregates.

    ``tests/data/golden_step_fingerprints.json`` was captured before the
    lean event loop replaced the original one (see ``_golden_step``): any
    change to a period lookup, an RNG draw, an envelope's place in a buffer
    or the stop poll shows up here as a different fingerprint, decision
    round or counter for some seed.
    """

    @pytest.fixture(scope="class")
    def goldens(self):
        return load_goldens()

    def test_the_pinned_matrix_is_the_whole_matrix(self, goldens):
        expected = {
            cell_key(label, fault_model, n)
            for label, _, _, _ in STACKS
            for fault_model in FAULT_MODELS
            for n in SIZES
        }
        assert set(goldens["outcomes"]) == expected

    @pytest.mark.parametrize("label,kind,f,use_translation", STACKS)
    @pytest.mark.parametrize("fault_model", FAULT_MODELS)
    @pytest.mark.parametrize("n", SIZES)
    def test_per_seed_outcomes_match_the_golden(
        self, goldens, label, kind, f, use_translation, fault_model, n
    ):
        pinned = goldens["outcomes"][cell_key(label, fault_model, n)]
        outcomes = run_cell(kind, f, use_translation, fault_model, n)
        assert [outcome.seed for outcome in outcomes] == list(SEEDS)
        for outcome, pin in zip(outcomes, pinned):
            context = f"{label}/{fault_model}/n={n}/seed={outcome.seed}"
            assert outcome.seed == pin["seed"], context
            assert outcome.rounds_executed == pin["rounds_executed"], context
            assert {
                str(p): r for p, r in outcome.decision_rounds.items()
            } == pin["decision_rounds"], context
            assert outcome.fingerprint == pin["fingerprint"], context

    def test_trace_level_counters_match_the_golden(self, goldens):
        assert compute_traces() == goldens["traces"]
        # The crash-recovery pin exercises the good-period veto.
        assert goldens["traces"]["crash-recovery/n=7/seed=3"]["skipped_fault_events"]
