"""The batched translation kernel: bit-identical to scalar Algorithm 4.

Pins :class:`repro.predimpl.batched_translation.BatchTranslationKernel`
against the scalar :class:`KernelToUniformTranslation` at the uint64
word-spill sizes (n = 1, 63, 64, 65): the Theorem 8 ``NewHO`` threshold,
the listen-set shrinkage inside a macro-round, the decisions, and the
scalar-vs-batched fingerprint equality on every round prefix; and a padded
row space of mixed n and mixed f against the per-cell kernels, row by row.
"""

from __future__ import annotations

import pytest

from repro.adversaries import CounterKernelOracle
from repro.algorithms import OneThirdRule, UniformVoting
from repro.core.machine import HOMachine
from repro.engine.rng import SeededRng
from repro.predimpl.translation import KernelToUniformTranslation
from repro.rounds.backend import ReplicaBatch, ReplicaTask, get_backend
from repro.rounds.fallback import FallbackReason
from tests.conftest import count_compactions

#: the word-spill sizes: one word exactly, one bit short, one bit over.
SPILL_SIZES = [1, 63, 64, 65]


def kernel_oracle(n, seed, f):
    return CounterKernelOracle(n, range(n - f), rng=SeededRng(seed))


def shuffled_values(n, seed):
    values = [10 * (p + 1) for p in range(n)]
    SeededRng(seed).stream("values").shuffle(values)
    return values


def translation_f(n):
    """A small non-trivial f at every spill size (0 only where forced)."""
    return min(1, (n - 1) // 3)


def make_batch(n, seeds, f, max_rounds, inner=OneThirdRule, **kwargs):
    """One translation cell; *f* is one value or one per seed."""
    fs = f if isinstance(f, list) else [f] * len(seeds)
    tasks = [
        ReplicaTask(
            seed=seed,
            algorithm=KernelToUniformTranslation(inner(n), f),
            oracle=kernel_oracle(n, seed, f),
            initial_values=shuffled_values(n, seed),
        )
        for seed, f in zip(seeds, fs)
    ]
    kwargs.setdefault("fingerprints", True)
    return ReplicaBatch(n=n, tasks=tasks, max_rounds=max_rounds, **kwargs)


def translation_kernel(*batches):
    """The one row space of *batches*, every cell of which must be admitted."""
    from repro.predimpl.batched_translation import BatchTranslationKernel

    kernel, declined = BatchTranslationKernel.from_cells(batches)
    assert declined == {}
    return kernel


def scalar_machines(n, seeds, f):
    return [
        HOMachine(
            KernelToUniformTranslation(OneThirdRule(n), f),
            kernel_oracle(n, seed, f),
            shuffled_values(n, seed),
        )
        for seed in seeds
    ]


class TestKernelLockstep:
    """Drive the batched kernel next to scalar machines, round by round."""

    def drive(self, n, rounds=None):
        import numpy as np

        f = translation_f(n)
        seeds = [7, 8, 9]
        machines = scalar_machines(n, seeds, f)
        shadows = [kernel_oracle(n, seed, f) for seed in seeds]
        if rounds is None:
            rounds = 3 * (f + 1)
        kernel = translation_kernel(make_batch(n, seeds, f, rounds))
        active = np.ones(len(seeds), dtype=bool)
        for round in range(1, rounds + 1):
            heard = np.zeros((len(seeds), n, n), dtype=bool)
            for r, shadow in enumerate(shadows):
                for p in range(n):
                    mask = shadow.ho_mask(round, p)
                    for q in range(n):
                        heard[r, p, q] = bool(mask >> q & 1)
            kernel.step(round, heard, active)
            for machine in machines:
                machine.run_round()
            yield round, f, kernel, machines

    @pytest.mark.parametrize("n", SPILL_SIZES)
    def test_listen_and_new_ho_match_scalar(self, n):
        for round, f, kernel, machines in self.drive(n):
            algorithm = machines[0].algorithm
            for r, machine in enumerate(machines):
                for p in range(n):
                    state = machine.state(p)
                    batch_listen = {q for q in range(n) if kernel.listen[r, p, q]}
                    assert batch_listen == set(state.listen), (n, round, r, p)
                    if algorithm.is_boundary_round(round):
                        batch_ho = {q for q in range(n) if kernel.last_new_ho[r, p, q]}
                        assert batch_ho == set(state.last_new_ho), (n, round, r, p)

    @pytest.mark.parametrize("n", [4, 65])
    def test_theorem8_new_ho_threshold_for_members(self, n):
        """At every boundary, each pi0 member's NewHO contains all of pi0
        and has at least n - f processes -- the Theorem 8 guarantee."""
        f = translation_f(n)
        pi0 = set(range(n - f))
        saw_boundary = False
        for round, f, kernel, machines in self.drive(n):
            if not machines[0].algorithm.is_boundary_round(round):
                continue
            saw_boundary = True
            for r in range(len(machines)):
                for p in pi0:
                    batch_ho = {q for q in range(n) if kernel.last_new_ho[r, p, q]}
                    assert pi0 <= batch_ho
                    assert len(batch_ho) >= n - f
        assert saw_boundary

    def test_listen_shrinks_within_a_macro_round(self):
        """Non-boundary rounds only ever intersect the listen sets; the
        boundary resets them to the full process set."""
        n = 65
        previous = None
        for round, f, kernel, machines in self.drive(n, rounds=2 * (f := 1) + 2):
            algorithm = machines[0].algorithm
            listen = kernel.listen.copy()
            if previous is not None and not algorithm.is_boundary_round(round):
                assert bool((listen <= previous).all())
            if algorithm.is_boundary_round(round):
                assert bool(listen.all())
            previous = listen

    @pytest.mark.parametrize("n", SPILL_SIZES)
    def test_decisions_match_scalar(self, n):
        for round, f, kernel, machines in self.drive(n):
            for r, machine in enumerate(machines):
                scalar = {
                    p: machine.algorithm.decision(machine.state(p))
                    for p in range(n)
                    if machine.algorithm.decision(machine.state(p)) is not None
                }
                decisions, _rounds = kernel.decisions_of(r)
                assert decisions == scalar, (n, round, r)


class TestBackendFingerprints:
    def test_fingerprints_equal_on_every_round_prefix(self):
        """max_rounds = k for every k: the digests chain per executed
        round, so prefix-k equality pins the whole round sequence."""
        n, f = 4, 1
        for k in range(1, 3 * (f + 1) + 1):
            seeds = [0, 1, 2, 3]
            scalar = get_backend("scalar").run(
                make_batch(n, seeds, f, k, run_full_horizon=True)
            )
            batched = get_backend("batch").run(
                make_batch(n, seeds, f, k, run_full_horizon=True)
            )
            assert scalar == batched, f"prefix {k} diverges"
            assert all(outcome.fingerprint for outcome in scalar)

    @pytest.mark.parametrize("n", SPILL_SIZES)
    def test_full_outcomes_equal_at_spill_sizes(self, n):
        f = translation_f(n)
        seeds = [11, 12]
        rounds = 3 * (f + 1)
        scalar = get_backend("scalar").run(make_batch(n, seeds, f, rounds))
        batched = get_backend("batch").run(make_batch(n, seeds, f, rounds))
        assert scalar == batched
        assert all(outcome.decisions for outcome in scalar)


class TestRowCompaction:
    """A translation cell is a row space of its own, and that one compacts."""

    def test_compact_keeps_listen_known_and_inner_rows_aligned(self):
        """Compacted mid-run, the kernel equals one built from the kept
        replicas only and stepped with the same heard rows throughout."""
        import numpy as np

        n, f, seeds, keep = 7, 2, [3, 4, 5, 6, 7, 8], [1, 3, 4]
        whole = translation_kernel(make_batch(n, seeds, f, 12))
        kept = translation_kernel(make_batch(n, [seeds[r] for r in keep], f, 12))
        rng = np.random.default_rng(0)
        # Rounds 4-6 are the second macro-round: compacting before round 5
        # gathers shrunken listen sets and grown known sets, and stopping in
        # round 11 compares them mid-macro-round again.
        for round in range(1, 12):
            heard = rng.random((len(seeds), n, n)) < 0.9
            kept.step(round, heard[keep], np.ones(len(keep), dtype=bool))
            if round == 5:
                assert not whole.listen.all() and whole.known.sum() > whole.known.shape[0] * n
                whole.compact(np.array(keep))
                assert whole.replicas == len(keep) and whole.last_new_ho is None
            if round >= 5:
                heard = heard[keep]
            whole.step(round, heard, np.ones(len(heard), dtype=bool))
        assert not whole.listen.all() and whole._inner.decided().any()
        assert whole.tables == kept.tables
        for name in ("listen", "known", "last_new_ho"):
            assert np.array_equal(getattr(whole, name), getattr(kept, name)), name
        for name in ("x", "decision_code", "decision_round"):
            assert np.array_equal(getattr(whole._inner, name), getattr(kept._inner, name)), name
        assert [whole.decisions_of(r) for r in range(3)] == [
            kept.decisions_of(r) for r in range(3)
        ]

    def test_mixed_n_and_f_row_space_equals_the_per_cell_kernels(self):
        """Cells differing in n and f -- one of them mixing f itself -- in
        one padded row space, stepped with random heard rows and random
        activity and compacted when every row with f > 0 is mid-macro-round,
        equal each cell's own kernel row by row.  Padded processes stay
        invisible: no real row learns a padded one's message, and neither
        a padded sender nor a padded receiver is ever in a NewHO."""
        import numpy as np

        cells = [
            make_batch(1, [0, 1], 0, 12),
            make_batch(4, [2, 3, 4], 1, 12),
            make_batch(7, [5, 6, 7, 8], [2, 1, 2, 1], 12),
            make_batch(65, [9, 10], 3, 12),
        ]
        whole = translation_kernel(*cells)
        parts = [translation_kernel(cell) for cell in cells]
        rows = [(part, r, cell.n) for part, cell in zip(parts, cells) for r in range(cell.replicas)]
        assert whole.n == 65 and whole.f.tolist() == [0, 0, 1, 1, 1, 2, 1, 2, 1, 3, 3]
        orig = np.arange(len(rows))
        rng = np.random.default_rng(1)
        for round in range(1, 13):
            heard = np.zeros((len(rows), 65, 65), dtype=bool)
            active = rng.random(len(rows)) < 0.85
            start = 0
            for part, cell in zip(parts, cells):
                span, n = slice(start, start + cell.replicas), cell.n
                heard[span, :n, :n] = rng.random((cell.replicas, n, n)) < 0.9
                part.step(round, heard[span, :n, :n], active[span])
                start = span.stop
            if round == 6:
                # Rounds per macro are 1, 2, 3 and 4: after round 5 every
                # row but the f = 0 ones is inside a macro-round.
                keep = np.flatnonzero(orig % 3 != 1)
                whole.compact(keep)
                orig = orig[keep]
            whole.step(round, heard[orig], active[orig])
            for i, o in enumerate(orig.tolist()):
                part, r, n = rows[o]
                assert whole.f[i] == part.f[r] and whole.threshold[i] == part.threshold[r]
                assert np.array_equal(whole.listen[i, :n, :n], part.listen[r]), (round, o)
                assert np.array_equal(whole.known[i, :n, :n], part.known[r]), (round, o)
                assert not whole.known[i, :n, n:].any(), (round, o)
                assert np.array_equal(whole._inner.x[i, :n], part._inner.x[r]), (round, o)
                assert whole.decisions_of(i) == part.decisions_of(r), (round, o)
                if round % int(whole.rounds_per_macro[i]) == 0 and active[o]:
                    new_ho = whole.last_new_ho[i]
                    assert np.array_equal(new_ho[:n, :n], part.last_new_ho[r]), (round, o)
                    assert not new_ho[n:].any() and not new_ho[:, n:].any(), (round, o)
        assert whole._inner.decided().any()

    def test_wide_cell_compacts_on_the_batch_backend(self, monkeypatch):
        """R = 96 replicas deciding macro-round by macro-round: the one-cell
        loop retires and compacts them, and the outcomes stay scalar's."""
        from repro.predimpl.batched_translation import BatchTranslationKernel

        compactions = count_compactions(monkeypatch, BatchTranslationKernel)
        n, f, seeds = 4, 1, list(range(96))
        backend = get_backend("batch")
        batched = backend.run(make_batch(n, seeds, f, 60, fingerprints=False))
        assert backend.last_fallback_reason is None
        assert compactions and compactions[0][0] == 96
        assert batched == get_backend("scalar").run(
            make_batch(n, seeds, f, 60, fingerprints=False)
        )


class TestEligibility:
    def test_non_one_third_rule_inner_is_rejected(self):
        """``from_cells`` sets the cell aside with its reason and still
        builds the others."""
        from repro.predimpl.batched_translation import BatchTranslationKernel

        uniform_voting = make_batch(4, [0], 1, 8, inner=UniformVoting)
        kernel, declined = BatchTranslationKernel.from_cells(
            [uniform_voting, make_batch(7, [1, 2], 2, 8)]
        )
        assert declined == {
            0: FallbackReason.INNER_NOT_ROUND_OBLIVIOUS.render(inner="UniformVoting")
        }
        assert kernel.replicas == 2 and kernel.row_n is None
        assert kernel.f.tolist() == [2, 2]

    def test_batch_backend_degrades_gracefully_for_uv_inner(self):
        """An ineligible inner must not poison the batch backend -- it
        falls back to per-replica scalar execution with equal outcomes."""

        def batch():
            return make_batch(4, [3, 4], 1, 12, inner=UniformVoting)

        assert get_backend("batch").run(batch()) == get_backend("scalar").run(batch())
