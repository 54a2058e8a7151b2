"""The heard count a kernel step receives is its heard matrix's row sums.

:class:`~repro.batch.engine.BatchEngine` takes ``|HO(p, r)|`` once per round
from the packed words (``popcount_words``) and hands it to ``kernel.step``
beside the unpacked heard matrix; the kernels' update gates read only the
count, and the translation kernel hands its inner OneThirdRule the count of
its own ``NewHO``.  Pinned on every step of: every batchable round-level
scenario at the word-spill sizes, a mixed-n ``super`` row space, and a
compacting run in which a finished cell's rows keep stale words.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.batched import (
    BatchKernel,
    BatchLastVoting,
    BatchOneThirdRule,
    BatchUniformVoting,
)
from repro.batch.super import SuperBatchBackend
from repro.predimpl.batched_translation import BatchTranslationKernel
from repro.rounds.backend import get_backend
from repro.runner.registry import REGISTRY
from tests.conftest import count_compactions

ROUND_LEVEL = [
    name
    for name in REGISTRY.batchable_scenario_names()
    if REGISTRY.resolve_backend(name, "scalar") == "scalar"
]
KERNELS = (BatchOneThirdRule, BatchUniformVoting, BatchLastVoting, BatchTranslationKernel)


class Step:
    """One ``kernel.step`` call, as the kernel saw it."""

    def __init__(self, kernel_class, heard, heard_count, active):
        self.kernel_class = kernel_class
        self.exact = heard_count.shape == heard.shape[:2] and bool(
            np.array_equal(heard_count, heard.sum(axis=2))
        )
        #: rows stepped while not active whose words still say they heard someone
        self.stale_rows = int((heard_count[~active] > 0).any(axis=1).sum())


@pytest.fixture
def steps(monkeypatch):
    """Every kernel step taken under the test, recorded before it runs."""
    seen = []
    for kernel_class in KERNELS:

        def checked(kernel, round, heard, heard_count, active, step=kernel_class.step,
                    kernel_class=kernel_class):
            seen.append(Step(kernel_class, heard, heard_count, active))
            return step(kernel, round, heard, heard_count, active)

        monkeypatch.setattr(kernel_class, "step", checked)
    return seen


def plan(scenario, n, seeds, fault_model="lossy"):
    return REGISTRY.batch_builder(scenario)(fault_model, n=n, seeds=seeds)


def assert_exact(steps):
    assert steps, "no kernel step was taken"
    assert all(step.exact for step in steps), [
        step.kernel_class.__name__ for step in steps if not step.exact
    ]


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("scenario", ROUND_LEVEL)
def test_every_round_level_scenario(steps, scenario, n):
    backend = get_backend("batch")
    backend.run(plan(scenario, n, (0, 1)).batch)
    assert backend.last_fallback_reason is None
    assert_exact(steps)


def test_mixed_n_super_row_space(steps):
    """Every kernel class in one padded row space of n = 1, 7 and 65."""
    cells = [plan(scenario, n, (3, 4)).batch for scenario in ROUND_LEVEL for n in (1, 7, 65)]
    backend = SuperBatchBackend()
    backend.run_batches(cells)
    assert backend.last_fallback_reasons == {}
    assert {step.kernel_class for step in steps} == set(KERNELS)
    assert_exact(steps)


def test_compacting_run_with_a_finished_cell(steps, monkeypatch):
    """A fault-free cell decides in round 2 and leaves its words in the
    buffer while 64 lossy replicas run on; the row space then compacts."""
    cells = [
        plan("ho-classic-otr", 4, range(4), "fault-free").batch,
        plan("ho-round-mobile-omission", 7, range(64)).batch,
        plan("ho-classic-otr", 65, range(2)).batch,
    ]
    backend = SuperBatchBackend()
    with monkeypatch.context() as patch:
        compactions = count_compactions(patch, BatchKernel)
        backend.run_batches(cells)
    assert backend.last_fallback_reasons == {}
    assert compactions, "the row space never compacted"
    assert any(step.stale_rows for step in steps), "no step saw a stale row"
    assert_exact(steps)
