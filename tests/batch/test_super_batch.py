"""The super-batch contract: many heterogeneous cells, one lockstep loop.

The cross-cell :class:`~repro.batch.super.SuperBatchBackend` packs every
eligible cell of a grid into a single padded row space.  These tests pin
its outcomes bit-identical to the scalar reference backend -- across mixed
system sizes spanning the 64-bit word boundary, across all four dynamic
adversary families (whose counter-based duals make cross-cell packing
possible), through the retire-and-compact path, and on every documented
per-cell fallback.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy
from repro.adversaries import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    FaultFreeOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
    StaticCrashOracle,
)
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.batch import SuperBatchBackend
from repro.rounds.backend import MonitorSpec, ReplicaBatch, ReplicaTask, get_backend
from repro.rounds.bitmask import mask_of

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


@needs_numpy
class TestPerCellFallbacks:
    def test_monitored_cell_falls_back_per_cell(self):
        cell = make_cell(
            OneThirdRule,
            4,
            0,
            2,
            monitor_spec=MonitorSpec(predicates=("p_otr",)),
        )
        backend = SuperBatchBackend()
        outcomes = backend.run(cell)
        assert backend.last_fallback_reason == (
            "monitored runs take the per-cell batch path"
        )
        assert outcomes == get_backend("scalar").run(cell)

    def test_fingerprinted_cell_falls_back_per_cell(self):
        cell = make_cell(OneThirdRule, 4, 0, 2, fingerprints=True)
        backend = SuperBatchBackend()
        outcomes = backend.run(cell)
        assert backend.last_fallback_reason == (
            "fingerprinted runs take the per-cell batch path"
        )
        assert outcomes == get_backend("scalar").run(cell)

    def test_mixed_grid_fallback_and_super_coexist(self):
        """Eligible cells super-batch; the monitored one drops per-cell."""
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
        assert set(backend.last_fallback_reasons) == {1}
        scalar = get_backend("scalar")
        assert results[0] == scalar.run(eligible)
        assert results[1] == scalar.run(monitored)


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
