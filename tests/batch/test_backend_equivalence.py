"""The backend contract: batch execution is bit-identical to the scalar path.

Golden scenarios (all three algorithms x the classic fault-model axis) are
executed on the scalar reference backend and on the vectorised batch
backend (``test_admission.py`` covers the batch backend declining), and
every replica must agree on decisions, decision rounds, message accounting,
predicate reports and the per-round fingerprints.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy
from repro.adversaries import (
    FaultFreeOracle,
    IntersectOracle,
    PartitionOracle,
    RandomOmissionOracle,
    SequenceOracle,
    StaticCrashOracle,
)
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.batch import BatchBackend
from repro.engine.rng import SeededRng
from repro.predicates import MONITOR_NAMES
from repro.rounds.backend import (
    MonitorSpec,
    ReplicaBatch,
    ReplicaTask,
    backend_names,
    get_backend,
)
from repro.rounds.bitmask import mask_of
from tests.conftest import count_compactions

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")

ORACLE_FACTORIES = {
    "fault-free": lambda n, rng: FaultFreeOracle(n),
    "crash-stop": lambda n, rng: StaticCrashOracle(n, {n - 1: 3}),
    "partition-heal": lambda n, rng: PartitionOracle(
        n, [range(0, n // 2), range(n // 2, n)], heal_round=6
    ),
    "crash-recovery": lambda n, rng: SequenceOracle(
        n,
        [
            (FaultFreeOracle(n), 3),
            (StaticCrashOracle(n, {n - 1: 1}), 4),
            (FaultFreeOracle(n), None),
        ],
    ),
    "lossy": lambda n, rng: RandomOmissionOracle(n, 0.25, rng=rng),
    # Deterministic crash schedule intersected with seeded loss: exercises
    # the IntersectBatchOracle decomposition (broadcast + per-replica).
    "crash+lossy": lambda n, rng: IntersectOracle(
        n, StaticCrashOracle(n, {n - 1: 4}), RandomOmissionOracle(n, 0.2, rng=rng)
    ),
}


def make_batch(algo_cls, fault_model, n, base_seed, replicas, **kwargs):
    factory = ORACLE_FACTORIES[fault_model]
    tasks = []
    for i in range(replicas):
        seed = base_seed + i
        rng = SeededRng(seed)
        values = [10 * (p + 1) for p in range(n)]
        rng.stream("values").shuffle(values)
        tasks.append(
            ReplicaTask(
                seed=seed,
                algorithm=algo_cls(n),
                oracle=factory(n, rng),
                initial_values=values,
            )
        )
    scope = range(n - 1) if fault_model == "crash-stop" else range(n)
    kwargs.setdefault("scope_mask", mask_of(scope))
    kwargs.setdefault("fingerprints", True)
    return ReplicaBatch(n=n, tasks=tasks, max_rounds=40, **kwargs)


class TestBackendRegistry:
    def test_names_and_auto(self):
        from repro._optional import have_numba

        assert set(backend_names()) >= {"scalar", "batch", "compiled", "auto"}
        assert get_backend("scalar").name == "scalar"
        assert get_backend("batch").name == "batch"
        assert get_backend("compiled").name == "compiled"
        expected_auto = "compiled" if have_numba() else "batch"
        assert get_backend("auto").name == expected_auto

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            get_backend("gpu")


class TestBitIdenticalReplicas:
    @pytest.mark.parametrize("algo_cls", [OneThirdRule, UniformVoting, LastVoting])
    @pytest.mark.parametrize("fault_model", sorted(ORACLE_FACTORIES))
    def test_batch_matches_scalar_per_seed(self, algo_cls, fault_model):
        """Decisions, decision rounds and round fingerprints are bit-identical."""
        scalar = get_backend("scalar").run(make_batch(algo_cls, fault_model, 5, 40, 5))
        batch_backend = get_backend("batch")
        batched = batch_backend.run(make_batch(algo_cls, fault_model, 5, 40, 5))
        if have_numpy():
            assert batch_backend.last_fallback_reason is None
        assert batched == scalar

    @needs_numpy
    @pytest.mark.parametrize("n", [7, 63, 64, 65])
    def test_word_boundary_sizes(self, n):
        """The (R, ceil(n/64)) word spill is exact across the 64-bit edge."""
        scalar = get_backend("scalar").run(
            make_batch(OneThirdRule, "partition-heal", n, 9, 3)
        )
        batched = get_backend("batch").run(
            make_batch(OneThirdRule, "partition-heal", n, 9, 3)
        )
        assert batched == scalar

    @needs_numpy
    @pytest.mark.parametrize("algo_cls", [OneThirdRule, UniformVoting, LastVoting])
    def test_wide_cell_retires_and_compacts(self, algo_cls, monkeypatch):
        """R = 96 lossy replicas decide a few per round: the one-cell row
        space compacts under them, and every outcome stays scalar's."""
        from repro.algorithms.batched import BatchKernel

        compactions = count_compactions(monkeypatch, BatchKernel)
        backend = get_backend("batch")
        batched = backend.run(make_batch(algo_cls, "lossy", 5, 0, 96, fingerprints=False))
        assert backend.last_fallback_reason is None
        assert compactions and compactions[0][0] == 96
        assert batched == get_backend("scalar").run(
            make_batch(algo_cls, "lossy", 5, 0, 96, fingerprints=False)
        )

    def test_fallback_on_unencodable_values(self):
        backend = BatchBackend()
        tasks = [
            ReplicaTask(
                seed=s,
                algorithm=OneThirdRule(3),
                oracle=FaultFreeOracle(3),
                # complex numbers are not totally ordered -> scalar loop
                initial_values=[1 + 1j, 2 + 2j, 1 + 1j],
            )
            for s in range(2)
        ]
        outcomes = backend.run(ReplicaBatch(n=3, tasks=tasks, max_rounds=5))
        if have_numpy():
            assert "not encodable" in backend.last_fallback_reason
        # OneThirdRule still decides on the unanimous-majority value.
        assert all(o.decisions for o in outcomes)

    def test_equal_values_with_distinct_reprs_take_the_scalar_loop(self):
        """1 and 1.0 compare equal but print differently -- not encodable."""
        backend = BatchBackend()
        tasks = [
            ReplicaTask(s, OneThirdRule(3), FaultFreeOracle(3), [1.0, 1, 2])
            for s in range(2)
        ]
        batch = ReplicaBatch(n=3, tasks=tasks, max_rounds=5, fingerprints=True)
        outcomes = backend.run(batch)
        if have_numpy():
            assert "differ in repr" in backend.last_fallback_reason
        reference = get_backend("scalar").run(
            ReplicaBatch(
                n=3,
                tasks=[
                    ReplicaTask(s, OneThirdRule(3), FaultFreeOracle(3), [1.0, 1, 2])
                    for s in range(2)
                ],
                max_rounds=5,
                fingerprints=True,
            )
        )
        assert outcomes == reference

    def test_mis_sized_algorithm_rejected_identically(self):
        """No tier sees an algorithm sized for a different n: the batch
        cannot be built, whatever algorithm mix or environment it carries."""
        from repro.predimpl.step_backend import StepEnvironment

        def task(seed, algorithm, oracle=FaultFreeOracle(5)):
            return ReplicaTask(seed, algorithm, oracle, [1, 2, 3, 4, 5])

        shapes = [
            [task(0, OneThirdRule(8))],
            [task(0, OneThirdRule(5)), task(1, OneThirdRule(8))],
            [task(0, OneThirdRule(8)), task(1, UniformVoting(5))],
            [task(0, OneThirdRule(8), StepEnvironment())],
        ]
        for tasks in shapes:
            with pytest.raises(ValueError, match="algorithm is sized for n=8, batch has n=5"):
                ReplicaBatch(n=5, tasks=tasks, max_rounds=5)

    def test_fallback_on_unknown_algorithm(self):
        class Custom(OneThirdRule):
            def transition(self, round, process, state, received):
                return state  # never changes -> different from OneThirdRule

        backend = BatchBackend()
        tasks = [
            ReplicaTask(s, Custom(3), FaultFreeOracle(3), [1, 2, 3]) for s in range(2)
        ]
        outcomes = backend.run(ReplicaBatch(n=3, tasks=tasks, max_rounds=5))
        if have_numpy():
            assert "no batched kernel" in backend.last_fallback_reason
        assert all(not o.decisions for o in outcomes)


class TestMonitoredBatches:
    def _make(self, fault_model, stop=None, horizon=False):
        n = 5
        pi0 = frozenset(range(n))
        names = tuple(MONITOR_NAMES)
        batch = make_batch(
            OneThirdRule, fault_model, n, 7, 6,
            run_full_horizon=horizon,
            monitor_spec=MonitorSpec(
                predicates=names, pi0_mask=mask_of(pi0), stop_after_held=stop
            ),
        )
        return batch

    @pytest.mark.parametrize("fault_model", ["partition-heal", "lossy", "crash-recovery"])
    @pytest.mark.parametrize("stop,horizon", [(None, False), (4, False), (None, True), (3, True)])
    def test_all_six_monitors_agree(self, fault_model, stop, horizon):
        scalar = get_backend("scalar").run(self._make(fault_model, stop, horizon))
        batched = get_backend("batch").run(self._make(fault_model, stop, horizon))
        assert batched == scalar


class TestRngReplicate:
    def test_replicate_reproduces_the_single_run_streams(self):
        base = SeededRng(41)
        for index in (0, 1, 5):
            replica = base.replicate(index)
            single = SeededRng(41 + index)
            assert [replica.stream("oracle.loss").random() for _ in range(8)] == [
                single.stream("oracle.loss").random() for _ in range(8)
            ]
            assert [replica.stream("values").random() for _ in range(4)] == [
                single.stream("values").random() for _ in range(4)
            ]

    def test_replicate_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            SeededRng(0).replicate(-1)
