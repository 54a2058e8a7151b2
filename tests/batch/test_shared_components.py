"""One environment, drawn once: cells of one engine run share identical oracle components.

Inside one :class:`~repro.batch.super.SuperBatchBackend` engine run, cells
that differ only in their fault-model overlay or algorithm hold the same
family dual and, under ``lossy``, the same loss loop.  ``vectorize_oracles``
hands them one object only when identity is proved (class, construction
signature, ``n`` and keys for a counter dual; ``n``, loss parameters and
every row's stream state for a loss loop), and the engine draws each shared
object once a round for the union of its holders' live rows.  These tests
pin the outcomes of shared runs to each cell run alone, and the identity
rules object by object.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.adversaries import (
    BurstyLossOracle,
    IntersectOracle,
    MobileOmissionOracle,
    RandomOmissionOracle,
    StaticCrashOracle,
)
from repro.adversaries.batch import (
    IntersectBatchOracle,
    PerReplicaBatchOracle,
    RandomOmissionBatchOracle,
    shared_components,
    vectorize_oracles,
)
from repro.adversaries.counter_batch import BurstyLossBatchDual
from repro.algorithms.batched import BatchOneThirdRule
from repro.batch import SuperBatchBackend
from repro.batch.engine import BatchEngine
from repro.rounds.backend import get_backend
from repro.workloads.adversarial import build_round_adversary_batch
from repro.workloads.batched import build_classic_batch
from tests.conftest import count_compactions

SEEDS = tuple(range(40, 56))
N = 5
PREDICATES = ("p_otr", "p_su", "p_k")


def _cells():
    """Fresh batches differing only in fault model, for two families: cells
    that retire on deciding, a monitored one, and a fingerprinted one that
    runs the full horizon; one lossy cell per family."""
    specs = [
        ("bursty-loss", "fault-free", {}),
        ("bursty-loss", "crash-stop", {}),
        ("bursty-loss", "crash-recovery", {"predicates": PREDICATES}),
        ("bursty-loss", "lossy", {}),
        ("mobile-omission", "fault-free", {}),
        ("mobile-omission", "crash-stop", {}),
        ("mobile-omission", "crash-recovery", {}),
        ("mobile-omission", "lossy", {"run_full_horizon": True}),
    ]
    batches = []
    for family, fault_model, extra in specs:
        plan = build_round_adversary_batch(
            fault_model, n=N, seeds=SEEDS, family=family, rounds=30, **extra
        )
        batch = plan.batch
        if extra.get("run_full_horizon"):
            batch = dataclasses.replace(batch, fingerprints=True)
        batches.append(batch)
    return batches


@pytest.fixture
def engines(monkeypatch):
    """Every BatchEngine built under the test, in order."""
    built = []
    init = BatchEngine.__init__

    def recording_init(self, kernel, cells):
        init(self, kernel, cells)
        built.append(self)

    monkeypatch.setattr(BatchEngine, "__init__", recording_init)
    return built


class TestSharedRunsMatchLoneRuns:
    def test_one_run_batches_call_equals_each_cell_alone(self, engines, monkeypatch):
        compactions = count_compactions(monkeypatch, BatchOneThirdRule)
        backend = SuperBatchBackend()
        shared_results = backend.run_batches(_cells())
        assert backend.last_fallback_reasons == {}
        # One engine run, in which both family duals and the loss loop are
        # shared, and which sheds its retired rows on the way.
        [engine] = engines
        holders = sorted(len(indices) for _, indices in engine.shared)
        assert holders == [2, 4, 4], holders
        assert compactions, "the retire-and-compact path was not taken"
        for batch, shared in zip(_cells(), shared_results):
            alone = get_backend("batch").run(batch)
            assert shared == alone, (batch.n, batch.run_full_horizon)
        observed = [outcome for outcomes in shared_results for outcome in outcomes]
        assert any(o.predicate_reports for o in observed)
        assert any(o.fingerprint for o in observed)

    def test_shared_loss_stream_ends_where_the_longest_sharer_s_would(self):
        """The shared loop draws from its first holder's streams; each ends
        where the scalar oracle of the longest-running holder would."""
        batches = _cells()
        backend = SuperBatchBackend()
        results = backend.run_batches(batches)
        overlays = [getattr(batch.tasks[0].oracle, "oracles", ())[1:] for batch in batches]
        lossy = [
            i for i, overlay in enumerate(overlays)
            if overlay and isinstance(overlay[0], RandomOmissionOracle)
        ]
        assert len(lossy) == 2
        draws_per_round = N * (N - 1)
        for r, task in enumerate(batches[lossy[0]].tasks):
            stream = task.oracle.oracles[1]._stream
            rounds = max(results[i][r].rounds_executed for i in lossy)
            fresh = RandomOmissionOracle(N, 0.2, rng=_overlay_rng(task.seed))._stream
            for _ in range(rounds * draws_per_round):
                fresh.random()
            assert stream.getstate() == fresh.getstate(), (task.seed, rounds)
        for i in lossy[1:]:
            for task in batches[i].tasks:
                fresh = RandomOmissionOracle(N, 0.2, rng=_overlay_rng(task.seed))._stream
                assert task.oracle.oracles[1]._stream.getstate() == fresh.getstate()


def _overlay_rng(seed):
    from repro.engine.rng import SeededRng

    return SeededRng(seed).spawn("overlay")


def _bursty(n, seeds, **kwargs):
    return [BurstyLossOracle(n, p_burst=0.2, p_recover=0.4, seed=s, **kwargs) for s in seeds]


def _lossy(n, seeds, **kwargs):
    return [RandomOmissionOracle(n, 0.3, seed=s, **kwargs) for s in seeds]


class TestIdentityIsProved:
    def test_identical_components_are_one_object(self):
        shared = {}
        a = vectorize_oracles(_bursty(6, range(4)), 4, shared)
        b = vectorize_oracles(_bursty(6, range(4)), 4, shared)
        assert isinstance(a, BurstyLossBatchDual) and a is b
        c = vectorize_oracles(_lossy(6, range(4)), 4, shared)
        d = vectorize_oracles(_lossy(6, range(4)), 4, shared)
        assert isinstance(c, RandomOmissionBatchOracle) and c is d

    def test_intersect_components_are_shared_and_the_intersects_are_not(self):
        shared = {}

        def overlaid(overlay):
            return [
                IntersectOracle(6, family, extra)
                for family, extra in zip(_bursty(6, range(4)), overlay)
            ]

        lossy = vectorize_oracles(overlaid(_lossy(6, range(4))), 4, shared)
        crashed = vectorize_oracles(overlaid([StaticCrashOracle(6, {5: 2})] * 4), 4, shared)
        alone = vectorize_oracles(_bursty(6, range(4)), 4, shared)
        assert isinstance(lossy, IntersectBatchOracle) and lossy is not crashed
        assert lossy.components[0] is crashed.components[0] is alone
        held = shared_components([lossy, crashed, alone])
        assert [(c, i) for c, i in held] == [(alone, [0, 1, 2])]

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: _bursty(7, range(4)), id="n"),
            pytest.param(lambda: _bursty(6, range(4), stable_from=9), id="signature"),
            pytest.param(lambda: _bursty(6, range(1, 5)), id="keys"),
            pytest.param(
                lambda: [MobileOmissionOracle(6, faults=1, seed=s) for s in range(4)],
                id="class",
            ),
        ],
    )
    def test_duals_that_differ_are_distinct(self, build):
        shared = {}
        base = vectorize_oracles(_bursty(6, range(4)), 4, shared)
        other = vectorize_oracles(build(), 4, shared)
        assert other is not base
        assert other.share_key() != base.share_key()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: _lossy(7, range(4)), id="n"),
            pytest.param(lambda: [RandomOmissionOracle(6, 0.4, seed=s) for s in range(4)],
                         id="loss"),
            pytest.param(lambda: _lossy(6, range(4), always_hear_self=False), id="self"),
            pytest.param(lambda: _lossy(6, range(1, 5)), id="stream"),
        ],
    )
    def test_loss_loops_that_differ_are_distinct(self, build):
        shared = {}
        base = vectorize_oracles(_lossy(6, range(4)), 4, shared)
        assert vectorize_oracles(build(), 4, shared) is not base

    def test_a_stream_one_draw_ahead_is_distinct(self):
        shared = {}
        base = vectorize_oracles(_lossy(6, range(4)), 4, shared)
        ahead = _lossy(6, range(4))
        ahead[3]._stream.random()
        assert vectorize_oracles(ahead, 4, shared) is not base

    def test_an_opaque_loop_is_never_shared(self):
        shared = {}

        def opaque():
            # Two sequential components keep the whole intersect opaque.
            return [
                IntersectOracle(6, a, b)
                for a, b in zip(_lossy(6, range(4)), _lossy(6, range(10, 14)))
            ]

        a = vectorize_oracles(opaque(), 4, shared)
        b = vectorize_oracles(opaque(), 4, shared)
        assert type(a) is PerReplicaBatchOracle and a is not b
        assert a.share_key() is None
        # Nor does a component of an opaque loop reach another cell.
        assert shared == {}

    def test_without_a_table_nothing_is_shared(self):
        assert vectorize_oracles(_bursty(6, range(4)), 4) is not vectorize_oracles(
            _bursty(6, range(4)), 4
        )

    def test_sharing_stops_at_the_engine(self, engines):
        """ho-classic-otr and -uv lossy cells carry the same loss streams but
        run in two engines (two kernel classes): each keeps its own loop."""
        plans = [
            build_classic_batch("lossy", n=N, seeds=SEEDS[:4], algorithm=algorithm)
            for algorithm in ("otr", "uv", "otr")
        ]
        SuperBatchBackend().run_batches([plan.batch for plan in plans])
        assert len(engines) == 2
        otr, uv = engines
        assert [indices for _, indices in otr.shared] == [[0, 1]]
        assert uv.shared == []
        assert uv.cells[0].oracle is not otr.cells[0].oracle

    def test_the_union_is_drawn_once_per_round(self):
        """A shared component answers every holder from one draw per round."""
        shared = {}
        a = vectorize_oracles(_bursty(6, range(4)), 4, shared)
        assert vectorize_oracles(_bursty(6, range(4)), 4, shared) is a
        first = np.array([True, False, True, False])
        second = np.array([False, False, True, True])
        a.share_round(1, first | second)
        words = a.round_masks(1, first)
        assert a.round_masks(1, second) is words
        shadows = _bursty(6, range(4))
        for r in (0, 2, 3):
            expected = [shadows[r].ho_mask(1, p) for p in range(6)]
            assert [int(w[0]) for w in words[r]] == expected
        assert not words[1].any()  # live in no holder: not drawn
