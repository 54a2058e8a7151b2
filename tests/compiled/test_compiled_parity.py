"""Compiled-tier parity: the fused round loop is bit-identical to scalar.

The compiled cores are exercised in *interpreted* mode
(``CompiledBackend(interpreted=True)``): the exact code objects numba would
JIT run under CPython, so a numba-free environment still pins the cores'
bit-identity against the numpy batch tier and the scalar reference.  When
numba *is* importable the same tests run the JIT path -- the backend only
switches how the chunk cores execute, never what they compute.

``test_classic_grid_parity`` and ``test_translation_parity`` are the
parity-evidence markers named by the registered compiled kernels
(:data:`repro.compiled.kernels._COMPILED`);
``test_every_compiled_kernel_names_its_kernel_and_its_parity_evidence``
holds every registration to them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.adversaries import (
    FaultFreeOracle,
    PartitionOracle,
    RandomOmissionOracle,
    SequenceOracle,
    StaticCrashOracle,
)
from repro.adversaries.dynamic import (
    BurstyLossOracle,
    EventuallyStableCoordinatorOracle,
    MobileOmissionOracle,
    RotatingPartitionOracle,
)
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.algorithms.batched import _KERNELS
from repro.compiled.kernels import _COMPILED
from repro.engine.rng import SeededRng
from repro.predimpl.translation import KernelToUniformTranslation
from repro.rounds.backend import ReplicaBatch, ReplicaTask, get_backend
from repro.rounds.bitmask import mask_of
from repro.rounds.fallback import FallbackReason


REPO_ROOT = Path(__file__).resolve().parents[2]

def _each(oracle):
    """A deterministic environment: one object every replica of the cell holds."""
    return lambda seed: oracle


#: classic (pure, broadcastable) and dynamic (counter-stream) adversaries,
#: as ``n -> (seed -> oracle)``: a classic one is built once per cell, as
#: the scenario builders do.  All of them vectorise without the per-replica
#: query loop, so the fused chunked precompute engages for every cell.
ORACLE_FACTORIES = {
    "fault-free": lambda n: _each(FaultFreeOracle(n)),
    "crash-stop": lambda n: _each(StaticCrashOracle(n, {n - 1: 3})),
    "partition-heal": lambda n: _each(
        PartitionOracle(n, [range(0, n // 2), range(n // 2, n)], heal_round=6)
    ),
    "crash-recovery": lambda n: _each(
        SequenceOracle(
            n,
            [
                (FaultFreeOracle(n), 3),
                (StaticCrashOracle(n, {n - 1: 1}), 4),
                (FaultFreeOracle(n), None),
            ],
        )
    ),
    "mobile": lambda n: lambda seed: MobileOmissionOracle(
        n, faults=max(0, (n - 1) // 3), seed=seed
    ),
    "rotating": lambda n: lambda seed: RotatingPartitionOracle(n, seed=seed),
    "bursty": lambda n: lambda seed: BurstyLossOracle(n, seed=seed),
    "stable-coord": lambda n: lambda seed: EventuallyStableCoordinatorOracle(
        n, stable_from=6, seed=seed
    ),
}

ALGORITHMS = [OneThirdRule, UniformVoting, LastVoting]


def compiled_backend():
    """A fresh interpreted-mode compiled backend (JIT engages when numba is up)."""
    from repro.compiled import CompiledBackend

    return CompiledBackend(interpreted=True)


def make_batch(algo_factory, oracle_name, n, base_seed, replicas, **kwargs):
    oracle_of = ORACLE_FACTORIES[oracle_name](n)
    tasks = []
    for i in range(replicas):
        seed = base_seed + i
        rng = SeededRng(seed)
        values = [10 * (p + 1) for p in range(n)]
        rng.stream("values").shuffle(values)
        tasks.append(ReplicaTask(seed=seed, oracle=oracle_of(seed), initial_values=values))
    scope = range(n - 1) if (oracle_name == "crash-stop" and n > 1) else range(n)
    kwargs.setdefault("scope_mask", mask_of(scope))
    kwargs.setdefault("max_rounds", 40)
    return ReplicaBatch(n=n, algorithm=algo_factory(n), tasks=tasks, **kwargs)


def assert_compiled_engaged_and_identical(make, reference_backend="scalar"):
    """The fused loop ran (no fallback) and outcomes match the reference."""
    reference = get_backend(reference_backend).run(make())
    backend = compiled_backend()
    outcomes = backend.run(make())
    assert backend.last_fallback_reason is None
    assert outcomes == reference


# --------------------------------------------------------------------- #
# the registered parity markers, and the registrations that name them
# --------------------------------------------------------------------- #


def test_every_compiled_kernel_names_its_kernel_and_its_parity_evidence():
    """A compiled dual cannot be registered without its bit-identity evidence:
    it is keyed by a registered batch kernel, declares that kernel's
    algorithm as its own, and its ``parity_test`` names an existing node."""
    assert _COMPILED
    for kernel_class, spec in _COMPILED.items():
        assert _KERNELS.get(kernel_class.algorithm_class) is kernel_class, kernel_class
        assert spec.batch_kernel_class is kernel_class, spec
        assert spec.algorithm_class is kernel_class.algorithm_class, spec
        assert callable(spec.runner), spec
        file, _, node = spec.parity_test.partition("::")
        tree = ast.parse((REPO_ROOT / file).read_text(encoding="utf-8"))
        assert node in {
            stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
        }, spec.parity_test


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
@pytest.mark.parametrize("oracle_name", sorted(ORACLE_FACTORIES))
def test_classic_grid_parity(algo_cls, oracle_name):
    """Compiled == batch == scalar on every round prefix of every cell.

    Prefix runs (max_rounds = t) pin the *whole trajectory*: a transition
    divergence at round k shows up in some prefix's decisions/messages even
    if the final fixed point happens to agree.
    """
    for max_rounds in (1, 2, 5, 40):
        scalar = get_backend("scalar").run(
            make_batch(algo_cls, oracle_name, 5, 40, 4, max_rounds=max_rounds)
        )
        batched = get_backend("batch").run(
            make_batch(algo_cls, oracle_name, 5, 40, 4, max_rounds=max_rounds)
        )
        backend = compiled_backend()
        compiled = backend.run(
            make_batch(algo_cls, oracle_name, 5, 40, 4, max_rounds=max_rounds)
        )
        assert backend.last_fallback_reason is None
        assert compiled == scalar
        assert compiled == batched


@pytest.mark.parametrize("oracle_name", ["fault-free", "crash-stop", "mobile", "bursty"])
@pytest.mark.parametrize("n,f", [(4, 1), (5, 1), (7, 2)])
def test_translation_parity(oracle_name, n, f):
    """The Theorem 8 translation core: listen/known bookkeeping bit-exact."""

    def make():
        return make_batch(
            lambda size: KernelToUniformTranslation(OneThirdRule(size), f),
            oracle_name, n, 300, 3, max_rounds=60,
        )

    assert_compiled_engaged_and_identical(make)


# --------------------------------------------------------------------- #
# word-spill sizes and full-horizon mode
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("algo_cls", [OneThirdRule, UniformVoting])
def test_word_spill_parity(n, algo_cls):
    """The (K, R, n, ceil(n/64)) uint64 layout is exact across the 64-bit edge."""
    for oracle_name in ("fault-free", "mobile"):
        assert_compiled_engaged_and_identical(
            lambda: make_batch(algo_cls, oracle_name, n, 500, 2, max_rounds=6)
        )


def test_full_horizon_runs_every_round():
    """run_full_horizon disables the early-decide poll inside the fused loop."""

    def make():
        return make_batch(
            OneThirdRule, "fault-free", 5, 40, 3,
            max_rounds=12, run_full_horizon=True,
        )

    assert_compiled_engaged_and_identical(make)
    outcomes = compiled_backend().run(make())
    assert all(o.rounds_executed == 12 for o in outcomes)


def test_empty_scope_runs_zero_rounds():
    """An already-satisfied scope never queries the oracle (same as scalar)."""

    def make():
        return make_batch(
            OneThirdRule, "fault-free", 5, 40, 2, scope_mask=0, max_rounds=10
        )

    assert_compiled_engaged_and_identical(make)
    outcomes = compiled_backend().run(make())
    assert all(o.rounds_executed == 0 for o in outcomes)


# --------------------------------------------------------------------- #
# the fallback ladder
# --------------------------------------------------------------------- #


def test_without_numba_the_batch_path_runs(monkeypatch):
    """A non-interpreted backend degrades with NO_NUMBA when numba is absent."""
    from repro.compiled import CompiledBackend

    monkeypatch.setattr("repro._optional.NUMBA", None)
    backend = CompiledBackend()
    outcomes = backend.run(make_batch(OneThirdRule, "fault-free", 5, 40, 3))
    assert backend.last_fallback_reason == FallbackReason.NO_NUMBA.render()
    assert outcomes == get_backend("scalar").run(
        make_batch(OneThirdRule, "fault-free", 5, 40, 3)
    )


def test_monitored_cells_take_the_batch_path():
    from repro.rounds.backend import MonitorSpec

    backend = compiled_backend()
    batch = make_batch(
        OneThirdRule, "partition-heal", 5, 40, 3,
        monitor_spec=MonitorSpec(predicates=("p_su",)),
    )
    outcomes = backend.run(batch)
    assert backend.last_fallback_reason == \
        FallbackReason.MONITORED_COMPILED_CELL.render()
    reference = get_backend("scalar").run(make_batch(
        OneThirdRule, "partition-heal", 5, 40, 3,
        monitor_spec=MonitorSpec(predicates=("p_su",)),
    ))
    assert outcomes == reference
    assert all(o.predicate_reports for o in outcomes)


def test_fingerprinted_cells_take_the_batch_path():
    backend = compiled_backend()
    outcomes = backend.run(
        make_batch(OneThirdRule, "fault-free", 5, 40, 3, fingerprints=True)
    )
    assert backend.last_fallback_reason == \
        FallbackReason.FINGERPRINTED_COMPILED_CELL.render()
    reference = get_backend("scalar").run(
        make_batch(OneThirdRule, "fault-free", 5, 40, 3, fingerprints=True)
    )
    assert outcomes == reference


def test_stateful_oracles_are_opaque_to_the_fused_loop():
    """rng-backed oracles need the per-replica query loop -> batch path."""

    def make():
        tasks = []
        for i in range(3):
            seed = 40 + i
            rng = SeededRng(seed)
            values = [10 * (p + 1) for p in range(5)]
            rng.stream("values").shuffle(values)
            tasks.append(ReplicaTask(
                seed=seed,
                oracle=RandomOmissionOracle(5, 0.25, rng=rng),
                initial_values=values,
            ))
        return ReplicaBatch(n=5, algorithm=OneThirdRule(5), tasks=tasks, max_rounds=40)

    backend = compiled_backend()
    outcomes = backend.run(make())
    assert backend.last_fallback_reason == \
        FallbackReason.OPAQUE_COMPILED_ORACLE.render()
    assert outcomes == get_backend("scalar").run(make())


def test_disable_env_forces_numba_off(monkeypatch):
    """REPRO_DISABLE_NUMBA=1 makes the loader refuse numba entirely."""
    from repro import _optional

    monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
    assert _optional._load_numba() is None


# --------------------------------------------------------------------- #
# the fused counter-stream hash
# --------------------------------------------------------------------- #


def _forced_fused(monkeypatch, compiled=None):
    """Make ``counter_hash_array`` take the numba tier's branch (the core
    runs interpreted when numba is absent, or when *compiled* is False)."""
    import functools

    from repro.compiled.kernels import counter_hash_rows
    from repro.engine import counter

    monkeypatch.setattr(
        counter, "_FUSED_HASH", functools.partial(counter_hash_rows, compiled=compiled)
    )


def test_counter_hash_rows_matches_the_numpy_stage():
    """``out[i, j] = mix64((prefix[i] + PHI) ^ last[j])``: the fused core
    is the last stage of ``counter_hash_array`` over an ``(M, L)`` block."""
    from repro.compiled.kernels import counter_hash_rows
    from repro.engine.counter import counter_hash, counter_hash_array

    keys = np.arange(193, dtype=np.uint64) * np.uint64(0x9E3779B9)
    rounds = np.arange(193, dtype=np.uint64)[::-1].copy()
    last = np.array([0, 1, 7, 2**63, 2**64 - 1], dtype=np.uint64)
    prefix = counter_hash_array(keys, [np.uint64(3), rounds])
    kept = prefix.copy(), last.copy()
    want = counter_hash_array(keys[:, None], [np.uint64(3), rounds[:, None], last])
    for compiled in (None, False):
        got = np.zeros((193, 5), dtype=np.uint64)
        counter_hash_rows(prefix, last, got, compiled=compiled)
        assert (got == want).all()
    assert (prefix == kept[0]).all() and (last == kept[1]).all()
    assert int(got[4, 3]) == counter_hash(int(keys[4]), 3, int(rounds[4]), 2**63)


def test_counter_hash_rows_writes_through_a_view_of_the_hash_buffer():
    """The dispatcher hands the core ``out.hashes.reshape(-1, L)`` -- of a
    whole scratch and of its leading rows -- and both land in the buffer."""
    from repro.compiled.kernels import counter_hash_rows
    from repro.engine.counter import DrawScratch, counter_hash_array

    keys, counters = _link_draw(4, 5)
    want = counter_hash_array(keys, counters)
    prefix = counter_hash_array(keys, counters[:-1])
    scratch = DrawScratch((4, 5, 5))
    for rows in (4, 3):
        draw = scratch.leading(rows)
        draw.hashes.fill(0)
        counter_hash_rows(
            prefix[:rows].reshape(-1), counters[-1].reshape(-1), draw.hashes.reshape(-1, 5)
        )
        assert (scratch.hashes[:rows] == want[:rows]).all()


def test_counter_hash_array_dispatcher_is_bit_identical(monkeypatch):
    """``counter_hash_array(out=)`` returns the same values whichever path
    its full-shape stage resolved to -- and ``units_of_counters`` on top."""
    from repro.engine.counter import (
        DrawScratch,
        counter_hash_array,
        units_of_array,
        units_of_counters,
    )

    keys, counters = _link_draw(6, 7)
    want = counter_hash_array(keys, counters)
    resolved = counter_hash_array(keys, counters, out=DrawScratch((6, 7, 7)))
    assert (resolved == want).all()
    _forced_fused(monkeypatch)
    forced = counter_hash_array(keys, counters, out=DrawScratch((6, 7, 7)))
    assert (forced == want).all()
    assert (units_of_counters(keys, counters) == units_of_array(want)).all()


def _link_draw(replicas, n):
    """The duals' ``(R, n, n)`` link-coin draw: keys and counters."""
    keys = (np.arange(replicas, dtype=np.uint64) + np.uint64(5)) * np.uint64(2**61 - 1)
    procs = np.arange(n, dtype=np.uint64)
    return keys[:, None, None], [np.uint64(1), np.uint64(9), procs[:, None], procs[None, :]]


def test_fused_stage_draws_into_the_callers_scratch(monkeypatch):
    """On the numba tier's branch a link draw still returns ``out.hashes``,
    bit-identical to the fresh result, draw after draw over the same
    scratch; a stage that is not link-shaped takes the numpy passes."""
    from repro.engine import counter
    from repro.engine.counter import DrawScratch, counter_hash_array

    keys, counters = _link_draw(3, 5)
    want = counter_hash_array(keys, counters)
    scratch = DrawScratch((3, 5, 5))
    for compiled in (None, False):
        _forced_fused(monkeypatch, compiled)
        calls = []
        fused = counter._FUSED_HASH

        def counted(*args):
            calls.append(args)
            fused(*args)

        monkeypatch.setattr(counter, "_FUSED_HASH", counted)
        for _ in range(2):
            got = counter_hash_array(keys, counters, out=scratch)
            assert got is scratch.hashes
            assert (got == want).all()
        assert len(calls) == 2
        # n = 1: the keys already have the (R, 1, 1) scratch shape, so the
        # link stage finds the scratch filled and runs the numpy passes in place.
        one_keys, one_counters = _link_draw(4, 1)
        one = counter_hash_array(one_keys, one_counters, out=DrawScratch((4, 1, 1)))
        assert (one == counter_hash_array(one_keys, one_counters)).all()
        # Not link-shaped: a counter that varies along the first axis too.
        grid = np.arange(15, dtype=np.uint64).reshape(3, 1, 5)
        square = counter_hash_array(keys, counters[:3] + [grid], out=scratch)
        assert (square == counter_hash_array(keys, counters[:3] + [grid])).all()
        # 0-d: every input a scalar.
        scalar = counter_hash_array(np.uint64(7), [np.uint64(2)], out=DrawScratch(()))
        assert int(scalar) == counter.counter_hash(7, 2)
        assert len(calls) == 2
        with pytest.raises(ValueError, match="does not fit"):
            counter_hash_array(
                keys[:, :, 0], counters[:2] + [counters[3][0]], out=scratch
            )


def test_fused_dispatch_allocates_nothing_of_the_draw_shape(monkeypatch):
    """The numba tier's branch of ``counter_hash_array`` (forced here; the
    core runs interpreted when numba is absent) hands views of the scratch
    to the fused core, so a link draw allocates only its small prefix stages."""
    from repro.engine import counter
    from tests.conftest import steady_state_peak_growth

    _forced_fused(monkeypatch)
    replicas, n = 8, 48
    keys, counters = _link_draw(replicas, n)
    want = counter.counter_hash_array(keys, counters)

    def build():
        scratch = counter.DrawScratch((replicas, n, n))

        def draw(round):
            hashes = counter.counter_hash_array(keys, counters, out=scratch)
            assert hashes is scratch.hashes
            return None

        return draw

    growth = steady_state_peak_growth(build)
    assert growth < replicas * n * n, growth
    scratch = counter.DrawScratch((replicas, n, n))
    assert (counter.counter_hash_array(keys, counters, out=scratch) == want).all()
