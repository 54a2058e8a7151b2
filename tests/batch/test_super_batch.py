"""The super-batch contract: many heterogeneous cells, one lockstep loop.

The cross-cell :class:`~repro.batch.super.SuperBatchBackend` packs every
eligible cell of a grid into a single padded row space.  These tests pin
its outcomes bit-identical to the scalar reference backend -- across mixed
system sizes spanning the 64-bit word boundary, across all four dynamic
adversary families (whose counter-based duals make cross-cell packing
possible), through the retire-and-compact path, with monitored and
fingerprinted cells packed beside unobserved ones, and with Theorem 8
translation cells of mixed n and f beside classic ones -- and every task's
values encoded exactly once on the way.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro._optional import have_numpy
from repro.adversaries import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    FaultFreeOracle,
    MobileOmissionOracle,
    RandomOmissionOracle,
    RotatingPartitionOracle,
    StaticCrashOracle,
)
from repro.adversaries.batch import PerReplicaBatchOracle
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.algorithms.batched import BatchKernel, BatchOneThirdRule
from repro.batch import SuperBatchBackend
from repro.batch.engine import COMPACT_MIN_DROP, BatchEngine, Cell
from repro.rounds.backend import MonitorSpec, ReplicaBatch, ReplicaTask, get_backend
from repro.rounds.bitmask import mask_of
from repro.runner.registry import REGISTRY
from tests.conftest import count_compactions

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")

FAMILIES = {
    "mobile": lambda n, seed: MobileOmissionOracle(n, faults=max(1, n // 4), seed=seed),
    "partition": lambda n, seed: RotatingPartitionOracle(
        n, blocks=2, period=3, churn=0.5, seed=seed, heal_from=10
    ),
    "bursty": lambda n, seed: BurstyLossOracle(
        n, p_burst=0.2, p_recover=0.4, seed=seed, stable_from=12
    ),
    "coordinator": lambda n, seed: EventuallyStableCoordinatorOracle(
        n, stable_from=8, seed=seed
    ),
}


def make_cell(
    algo_cls,
    n,
    base_seed,
    replicas,
    oracle_factory=None,
    max_rounds=30,
    **kwargs,
):
    factory = oracle_factory or (lambda n, seed: FaultFreeOracle(n))
    tasks = [
        ReplicaTask(
            seed=base_seed + i,
            algorithm=algo_cls(n),
            oracle=factory(n, base_seed + i),
            initial_values=[10 * (p + 1) for p in range(n)],
        )
        for i in range(replicas)
    ]
    kwargs.setdefault("fingerprints", False)
    return ReplicaBatch(n=n, tasks=tasks, max_rounds=max_rounds, **kwargs)


@needs_numpy
class TestCrossCellBitIdentity:
    def test_heterogeneous_grid_matches_scalar(self):
        """Mixed (algorithm, family, n) cells in ONE run equal the scalar runs."""
        cells = [
            make_cell(OneThirdRule, 4, 0, 3, FAMILIES["mobile"]),
            make_cell(UniformVoting, 5, 10, 2, FAMILIES["partition"]),
            make_cell(OneThirdRule, 7, 20, 3, FAMILIES["bursty"], max_rounds=40),
            make_cell(LastVoting, 6, 30, 2, FAMILIES["coordinator"], max_rounds=40),
            make_cell(OneThirdRule, 9, 40, 2, max_rounds=20, run_full_horizon=True),
        ]
        backend = SuperBatchBackend()
        results = backend.run_batches(cells)
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip(cells, results):
            assert outcomes == scalar.run(cell)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_each_dynamic_family_super_batches(self, family):
        """No per-cell fallback: all four families have counter duals."""
        cell = make_cell(OneThirdRule, 5, 7, 4, FAMILIES[family], max_rounds=40)
        backend = SuperBatchBackend()
        outcomes = backend.run(cell)
        assert backend.last_fallback_reason is None
        assert outcomes == get_backend("scalar").run(cell)

    @pytest.mark.parametrize("sizes", [(1, 4), (63, 64), (64, 65), (1, 63, 64, 65)])
    def test_word_boundary_padding(self, sizes):
        """Padded masks spill words exactly across the 64-bit edge."""
        cells = [
            make_cell(OneThirdRule, n, 100 + 10 * i, 2, FAMILIES["mobile"])
            for i, n in enumerate(sizes)
        ]
        backend = SuperBatchBackend()
        results = backend.run_batches(cells)
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip(cells, results):
            assert outcomes == scalar.run(cell)

    def test_n_equals_one_cell(self):
        cell = make_cell(OneThirdRule, 1, 0, 2)
        backend = SuperBatchBackend()
        assert backend.run(cell) == get_backend("scalar").run(cell)

    def test_compaction_path_is_identical(self):
        """Early-deciding rows trigger retire+compact without corrupting state.

        40 fault-free replicas decide within a few rounds while a lossy
        long-horizon cell keeps running -- occupancy drops far below
        COMPACT_THRESHOLD with well over COMPACT_MIN_DROP retired rows.
        """
        quick = make_cell(OneThirdRule, 4, 0, 40)
        slow = make_cell(
            OneThirdRule, 4, 100, 4, FAMILIES["bursty"], max_rounds=60
        )
        full = make_cell(
            OneThirdRule, 4, 200, 4, max_rounds=25, run_full_horizon=True
        )
        backend = SuperBatchBackend()
        results = backend.run_batches([quick, slow, full])
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip([quick, slow, full], results):
            assert outcomes == scalar.run(cell)

    def test_scope_mask_rows_respected(self):
        """Per-row scopes: a crash-stop cell stops at its scope, not n_max."""
        crashed = make_cell(
            OneThirdRule,
            4,
            0,
            3,
            lambda n, seed: StaticCrashOracle(n, {n - 1: 2}),
            scope_mask=mask_of(range(3)),
        )
        wide = make_cell(OneThirdRule, 8, 50, 2)
        backend = SuperBatchBackend()
        results = backend.run_batches([crashed, wide])
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip([crashed, wide], results):
            assert outcomes == scalar.run(cell)


class CountingOracle(FaultFreeOracle):
    """Fault-free, but opaque to the vectoriser: it gets the per-replica loop."""

    replica_invariant = False

    def __init__(self, n):
        super().__init__(n)
        self.queries = 0

    def ho_mask(self, round, process):
        self.queries += 1
        return super().ho_mask(round, process)


@needs_numpy
class TestFinishedCellsAreNotAsked:
    """A cell whose rows have all stopped costs no ``round_masks`` call."""

    HORIZON = 12

    def _quick(self, n, base_seed):
        """Decides in round 2 (fault-free OneThirdRule), 4 replicas."""
        return make_cell(OneThirdRule, n, base_seed, 4, lambda n, seed: CountingOracle(n))

    def _lossy(self, n, base_seed, loss=0.45, **kwargs):
        return make_cell(
            OneThirdRule, n, base_seed, 4,
            lambda n, seed: RandomOmissionOracle(n, loss, seed=seed),
            max_rounds=self.HORIZON, **kwargs,
        )

    def _run(self, monkeypatch, grid):
        """Run *grid()* on super; returns (cells, round_masks log, layouts built).

        The lossy oracles are sequential streams, so every backend gets a
        freshly built grid; outcomes must agree cell for cell.
        """
        asked = []
        round_masks = PerReplicaBatchOracle.round_masks

        def logging_round_masks(oracle, round, active):
            asked.append((oracle.oracles[0], round, bool(active.any())))
            return round_masks(oracle, round, active)

        layouts = []
        layout = BatchEngine._layout

        def counting_layout(engine, orig_of):
            layouts.append(len(orig_of))
            return layout(engine, orig_of)

        cells = grid()
        backend = SuperBatchBackend()
        with monkeypatch.context() as patch:
            patch.setattr(PerReplicaBatchOracle, "round_masks", logging_round_masks)
            patch.setattr(BatchEngine, "_layout", counting_layout)
            results = backend.run_batches(cells)
        assert backend.last_fallback_reasons == {}
        for name in ("batch", "scalar"):
            reference = get_backend(name)
            for outcomes, cell in zip(results, grid()):
                assert outcomes == reference.run(cell)
        return cells, asked, layouts

    def _rounds_asked(self, asked, cell):
        first = cell.tasks[0].oracle
        return [round for oracle, round, _ in asked if oracle is first]

    def test_skip_without_compaction(self, monkeypatch):
        def grid():
            return [self._quick(4, 0), self._lossy(7, 100, run_full_horizon=True)]

        (quick, lossy), asked, layouts = self._run(monkeypatch, grid)
        assert quick.replicas < COMPACT_MIN_DROP
        assert layouts == [8]  # never compacted: the skip does the work
        assert self._rounds_asked(asked, quick) == [1, 2]
        assert self._rounds_asked(asked, lossy) == list(range(1, self.HORIZON + 1))
        assert all(any_active for _, _, any_active in asked)
        assert [task.oracle.queries for task in quick.tasks] == [2 * 4] * 4

    def test_skip_across_a_compaction(self, monkeypatch):
        sizes = [4, 7, 65]

        def grid():
            quick = [self._quick(sizes[i % 3], 10 * i) for i in range(12)]
            # One lossy cell mid-grid whose replicas decide in rounds 2, 4, 4
            # and 5, one at the end that runs out its horizon: the compaction
            # before round 3 moves both to new offsets, the first one with a
            # replica already gone.
            return [
                *quick[:6], self._lossy(7, 500, loss=0.2),
                *quick[6:], self._lossy(65, 600, run_full_horizon=True),
            ]

        cells, asked, layouts = self._run(monkeypatch, grid)
        assert layouts == [56, 3 + 4]
        for cell in cells:
            rounds = self._rounds_asked(asked, cell)
            if isinstance(cell.tasks[0].oracle, CountingOracle):
                assert rounds == [1, 2]
                assert [task.oracle.queries for task in cell.tasks] == [2 * cell.n] * 4
            else:
                assert rounds == list(range(1, len(rounds) + 1)) and len(rounds) > 2
        assert self._rounds_asked(asked, cells[-1]) == list(range(1, self.HORIZON + 1))
        assert all(any_active for _, _, any_active in asked)


ALL_SIX = ("p_otr", "p_restr_otr", "p_su", "p_k", "p_2otr", "p_1/1otr")


def observed_group(algo_cls, family, replicas=5):
    """Eight cells for ONE row space: every observer shape, both word edges.

    Monitored, fingerprinted, both, neither; early stop, full horizon, a
    Pi0 scope; n on either side of the 64-bit word boundary, so every
    observed cell but the widest sees a strict corner of the padded round.
    """
    oracle = FAMILIES[family]
    return [
        make_cell(algo_cls, 1, 0, replicas,
                  monitor_spec=MonitorSpec(predicates=ALL_SIX), fingerprints=True),
        make_cell(algo_cls, 4, 10, replicas, oracle, max_rounds=40, run_full_horizon=True,
                  monitor_spec=MonitorSpec(predicates=ALL_SIX, stop_after_held=3)),
        make_cell(algo_cls, 5, 20, replicas, oracle, max_rounds=40),
        make_cell(algo_cls, 7, 30, replicas, oracle, max_rounds=40, fingerprints=True),
        make_cell(algo_cls, 9, 40, replicas, oracle, max_rounds=25, run_full_horizon=True,
                  monitor_spec=MonitorSpec(
                      predicates=("p_su", "p_k", "p_2otr"), pi0_mask=mask_of(range(6))
                  ),
                  fingerprints=True),
        # The wide cells keep the scalar reference affordable: short
        # horizons, and a fault-free unobserved neighbour.
        make_cell(algo_cls, 63, 50, replicas, oracle, max_rounds=10,
                  monitor_spec=MonitorSpec(predicates=ALL_SIX), fingerprints=True),
        make_cell(algo_cls, 64, 60, replicas),
        make_cell(algo_cls, 65, 70, replicas, oracle, max_rounds=10, run_full_horizon=True,
                  monitor_spec=MonitorSpec(predicates=ALL_SIX, stop_after_held=3)),
    ]


@needs_numpy
class TestObservedCellsShareTheRowSpace:
    """Monitors and fingerprints are a slot of the loop, not a way out of it."""

    def test_monitored_cell_super_batches(self):
        cell = make_cell(
            OneThirdRule,
            4,
            0,
            2,
            monitor_spec=MonitorSpec(predicates=("p_otr",)),
        )
        backend = SuperBatchBackend()
        outcomes = backend.run(cell)
        assert backend.last_fallback_reason is None
        assert all(outcome.predicate_reports for outcome in outcomes)
        assert outcomes == get_backend("scalar").run(cell)

    def test_fingerprinted_cell_super_batches(self):
        cell = make_cell(OneThirdRule, 4, 0, 2, fingerprints=True)
        backend = SuperBatchBackend()
        outcomes = backend.run(cell)
        assert backend.last_fallback_reason is None
        assert all(outcome.fingerprint for outcome in outcomes)
        assert outcomes == get_backend("scalar").run(cell)

    def test_mixed_grid_observed_and_unobserved_coexist(self):
        """The monitored cell packs beside the unobserved one."""
        eligible = make_cell(OneThirdRule, 4, 0, 2, FAMILIES["coordinator"])
        monitored = make_cell(
            OneThirdRule,
            4,
            10,
            2,
            monitor_spec=MonitorSpec(predicates=("p_otr",)),
        )
        backend = SuperBatchBackend()
        results = backend.run_batches([eligible, monitored])
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        assert results[0] == scalar.run(eligible)
        assert results[1] == scalar.run(monitored)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("algo_cls", [OneThirdRule, LastVoting])
    def test_observed_group_matches_scalar(self, algo_cls, family):
        """Reports, stop flags and fingerprints included, outcome for outcome."""
        backend = SuperBatchBackend()
        results = backend.run_batches(observed_group(algo_cls, family))
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip(observed_group(algo_cls, family), results):
            assert outcomes == scalar.run(cell)
        assert all(o.stopped_early and o.rounds_executed < 40 for o in results[1])

    def test_compaction_goes_around_pinned_rows(self, monkeypatch):
        """A big finished neighbour is compacted away; observed rows never are."""

        def grid():
            # 70 unobserved rows decide in round 2, which alone clears both
            # compaction thresholds; the observed cells on either side of
            # them run on (the first two finished, pinned, the third live).
            return [
                make_cell(OneThirdRule, 4, 0, 3, fingerprints=True),
                make_cell(OneThirdRule, 5, 10, 70),
                make_cell(OneThirdRule, 4, 100, 3,
                          monitor_spec=MonitorSpec(predicates=ALL_SIX, stop_after_held=2)),
                make_cell(OneThirdRule, 7, 200, 4, FAMILIES["bursty"], max_rounds=40,
                          monitor_spec=MonitorSpec(predicates=ALL_SIX), fingerprints=True,
                          run_full_horizon=True),
            ]

        backend = SuperBatchBackend()
        with monkeypatch.context() as patch:
            taken = count_compactions(patch, BatchKernel)
            results = backend.run_batches(grid())
        assert backend.last_fallback_reasons == {}
        scalar = get_backend("scalar")
        for cell, outcomes in zip(grid(), results):
            assert outcomes == scalar.run(cell)
        observed = {*range(0, 3), *range(73, 80)}
        present = list(range(80))
        assert taken
        for rows_before, keep in taken:
            assert rows_before == len(present)
            present = [present[i] for i in keep]
            assert observed <= set(present)
        assert present == sorted(observed)


SIZES = (1, 4, 7, 63, 64, 65)
FAULT_MODELS = ("fault-free", "crash-stop", "lossy")


def theorem8_grid():
    """``ho-theorem8-translation`` beside ``ho-classic-otr`` cells, one grid.

    Every size under every fault model, so the translation's default
    f = (n - 1) // 3 mixes 0, 1, 2, 20 and 21 in one row space, and the
    observer shape cycles over the cells: plain, monitored
    (``p_su, p_k, p_2otr``), fingerprinted.  The scalar reference of a wide
    translation cell costs ~20 ms a round, so those run one replica for 22
    rounds: one macro-round boundary each, at round 21 (f = 20) or 22
    (f = 21).
    """
    cells = []
    for scenario in ("ho-theorem8-translation", "ho-classic-otr"):
        build = REGISTRY.batch_builder(scenario)
        for i, fault_model in enumerate(FAULT_MODELS):
            for j, n in enumerate(SIZES):
                wide = n > 7
                kwargs = {}
                if wide and scenario == "ho-theorem8-translation":
                    kwargs["rounds"] = 22
                if (i + j) % 3 == 1:
                    kwargs["predicates"] = ("p_su", "p_k", "p_2otr")
                batch = build(fault_model, n=n, seeds=range(1 if wide else 3), **kwargs).batch
                cells.append(dataclasses.replace(batch, fingerprints=(i + j) % 3 == 2))
    return cells


@needs_numpy
def test_translation_cells_super_batch_beside_classic_cells():
    backend = SuperBatchBackend()
    results = backend.run_batches(theorem8_grid())
    assert backend.last_fallback_reasons == {}
    scalar = get_backend("scalar")
    for cell, outcomes in zip(theorem8_grid(), results):
        assert outcomes == scalar.run(cell), (cell.tasks[0].algorithm, cell.n)
    observed = [o for o in sum(results, []) if o.predicate_reports or o.fingerprint]
    assert any(o.predicate_reports for o in observed) and any(o.fingerprint for o in observed)


@needs_numpy
class TestValuesEncodeOnce:
    """Admission and construction share one pass over the initial values."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        import repro.algorithms.batched as batched

        calls = []
        encode = batched.encode_values

        def counting(values):
            calls.append(values)
            return encode(values)

        monkeypatch.setattr(batched, "encode_values", counting)
        return calls

    def test_batch_backend(self, encoded):
        cell = make_cell(LastVoting, 5, 0, 4, FAMILIES["mobile"])
        get_backend("batch").run(cell)
        assert len(encoded) == cell.replicas

    def test_super_grid_with_an_unencodable_cell(self, encoded):
        """The cell whose last task does not encode takes the scalar path
        with its reason, and nothing is encoded a second time."""
        colliding = make_cell(OneThirdRule, 3, 30, 3)
        colliding.tasks[-1] = dataclasses.replace(colliding.tasks[-1], initial_values=[1.0, 1, 2])
        grid = [
            make_cell(OneThirdRule, 4, 0, 3, FAMILIES["mobile"]),
            make_cell(UniformVoting, 5, 10, 2),
            colliding,
            make_cell(OneThirdRule, 7, 20, 2, fingerprints=True),
        ]
        backend = SuperBatchBackend()
        backend.run_batches(grid)
        assert list(backend.last_fallback_reasons) == [2]
        assert "differ in repr" in backend.last_fallback_reasons[2]
        assert len(encoded) == sum(cell.replicas for cell in grid)


@needs_numpy
def test_engine_rejects_cells_that_do_not_fit_the_kernel():
    from repro.batch.backends import build_cell

    narrow, wide = make_cell(OneThirdRule, 4, 0, 2), make_cell(OneThirdRule, 5, 0, 2)
    _, (kernel, oracle) = build_cell(BatchOneThirdRule, narrow)
    _, (_, wide_oracle) = build_cell(BatchOneThirdRule, wide)
    with pytest.raises(ValueError, match="oracle shape does not match"):
        Cell(wide, oracle)
    with pytest.raises(ValueError, match="kernel shape does not match"):
        BatchEngine(kernel, [Cell(narrow, oracle)] * 2)  # 4 rows, 2 in the kernel
    with pytest.raises(ValueError, match="kernel shape does not match"):
        BatchEngine(kernel, [Cell(wide, wide_oracle)])  # wider than the kernel


def test_super_backend_registered():
    assert get_backend("super").name == "super"


def test_scalar_fallback_without_numpy_matches(monkeypatch):
    """Numpy-free environments still get correct (per-cell scalar) results."""
    monkeypatch.setattr("repro._optional.NUMPY", None)
    backend = SuperBatchBackend()
    cell = make_cell(OneThirdRule, 4, 0, 2, FAMILIES["mobile"])
    outcomes = backend.run(cell)
    assert backend.last_fallback_reason is not None
    assert "numpy" in backend.last_fallback_reason
    assert outcomes == get_backend("scalar").run(cell)
