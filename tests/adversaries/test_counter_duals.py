"""Counter-based batch duals: bit-identical to the scalar dynamic oracles.

Each of the four dynamic adversary families has an array dual
(:mod:`repro.adversaries.counter_batch`) that recomputes the family's
counter-based draws array-wide.  These tests pin the duals to the scalar
oracles round by round (so equality holds on every prefix), the
eligibility rules (same family, same construction signature), and the
relaxed ``IntersectOracle`` decomposition guard: any number of broadcast
or counter-based components, at most one opaque sequential one.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.adversaries import (
    BurstyLossOracle,
    CounterKernelOracle,
    EventuallyStableCoordinatorOracle,
    FaultFreeOracle,
    IntersectOracle,
    MobileOmissionOracle,
    RandomOmissionOracle,
    RotatingPartitionOracle,
    StaticCrashOracle,
)
from repro.adversaries.batch import (
    IntersectBatchOracle,
    PerReplicaBatchOracle,
    vectorize_oracles,
)
from repro.adversaries.counter_batch import _DUALS, counter_batch_dual
from repro.engine.rng import SeededRng
from tests.conftest import steady_state_peak_growth


FAMILY_FACTORIES = {
    "mobile": lambda n, seed: MobileOmissionOracle(n, faults=2, seed=seed),
    "partition": lambda n, seed: RotatingPartitionOracle(
        n, blocks=3, period=2, churn=0.4, seed=seed
    ),
    "bursty": lambda n, seed: BurstyLossOracle(
        n, p_burst=0.25, p_recover=0.35, loss_good=0.05, seed=seed
    ),
    "coordinator": lambda n, seed: EventuallyStableCoordinatorOracle(
        n, stable_from=50, flaky_probability=0.4, seed=seed
    ),
    # pi0 = everyone but the last process (n = 1 collapses to pi0 = {0}).
    "kernel": lambda n, seed: CounterKernelOracle(n, range(max(1, n - 1)), seed=seed),
}


def scalar_masks(oracles, round):
    return [
        [oracle.ho_mask(round, p) for p in range(oracle.n)] for oracle in oracles
    ]


def words_as_masks(words, replicas, n):
    from repro.batch.arrays import mask_from_words_row

    return [[mask_from_words_row(words[r, p]) for p in range(n)] for r in range(replicas)]


def dual_masks(dual, round, replicas, n):
    words = dual.round_masks(round, np.ones(replicas, dtype=bool))
    return words_as_masks(words, replicas, n)


class TestScalarDualEquality:
    @pytest.mark.parametrize("family", sorted(FAMILY_FACTORIES))
    @pytest.mark.parametrize("n", [3, 8, 65])
    def test_masks_equal_on_every_round_prefix(self, family, n):
        """Round by round, every replica's mask row matches the scalar
        oracle -- so any prefix of the round sequence agrees too."""
        replicas = 4
        oracles = [FAMILY_FACTORIES[family](n, 20 + i) for i in range(replicas)]
        shadows = [FAMILY_FACTORIES[family](n, 20 + i) for i in range(replicas)]
        dual = counter_batch_dual(oracles, replicas)
        assert dual is not None, f"{family} has no counter dual"
        for round in range(1, 16):
            assert dual_masks(dual, round, replicas, n) == scalar_masks(
                shadows, round
            ), f"{family} diverges at round {round}"

    def test_scalar_query_order_does_not_matter(self):
        """The scalar oracle gives the same masks queried in any (p, r)
        order inside the retained window -- the counter property itself."""
        oracle = BurstyLossOracle(5, p_burst=0.3, p_recover=0.3, seed=4)
        forward = {
            (r, p): oracle.ho_mask(r, p) for r in range(1, 10) for p in range(5)
        }
        fresh = BurstyLossOracle(5, p_burst=0.3, p_recover=0.3, seed=4)
        for r in range(1, 10):  # the Markov chain still advances in order...
            fresh.ho_mask(r, 0)
        shuffled = {  # ...but within the window, query order is free
            (r, p): fresh.ho_mask(r, p)
            for r in range(9, 0, -1)
            for p in reversed(range(5))
        }
        assert forward == shuffled


class TestScratchNeverEscapes:
    """The duals draw every round into one reused scratch set; nothing they
    return or memoise may be backed by it."""

    @pytest.mark.parametrize("family", sorted(FAMILY_FACTORIES))
    @pytest.mark.parametrize("n", [8, 65])
    def test_round_words_survive_the_next_draw(self, family, n):
        """Keep round r's words, draw r+1: r's words are unchanged and
        still equal the scalar oracle's."""
        replicas = 3
        oracles = [FAMILY_FACTORIES[family](n, 40 + i) for i in range(replicas)]
        shadows = [FAMILY_FACTORIES[family](n, 40 + i) for i in range(replicas)]
        dual = counter_batch_dual(oracles, replicas)
        active = np.ones(replicas, dtype=bool)
        kept = dual.round_masks(1, active)
        for round in range(1, 8):
            copy = kept.copy()
            following = dual.round_masks(round + 1, active)
            assert np.array_equal(kept, copy), f"{family} round {round} was overwritten"
            assert words_as_masks(kept, replicas, n) == scalar_masks(shadows, round)
            kept = following

    @pytest.mark.parametrize("family", sorted(FAMILY_FACTORIES))
    def test_results_share_no_memory_with_the_scratch(self, family):
        replicas, n = 3, 8
        dual = counter_batch_dual(
            [FAMILY_FACTORIES[family](n, 60 + i) for i in range(replicas)], replicas
        )
        active = np.ones(replicas, dtype=bool)
        results = [dual.round_masks(round, active) for round in (1, 2, 3)]
        for words in results:
            for buffer in _scratch_buffers(dual):
                assert not np.shares_memory(words, buffer)

    # The partition dual draws per epoch, not per round: its one fresh
    # (R, n, n) comparison at an epoch change is outside the per-round claim.
    @pytest.mark.parametrize("share", ["all-active", "half-active"])
    @pytest.mark.parametrize("family", sorted(set(FAMILY_FACTORIES) - {"partition"}))
    def test_steady_state_rounds_allocate_no_link_matrix(self, family, share):
        """After two warm-up rounds at R = n = 64, three further rounds grow
        the traced peak by less than one ``R*n*n``-byte matrix -- the
        smallest full-shape temporary there is (a bool one).  With half the
        replicas retired that budget includes the bursty dual's gather of
        its live link-state rows and the fresh ``(R, n, W)`` result."""
        replicas = n = 64
        active = np.ones(replicas, dtype=bool)
        if share == "half-active":
            active[::2] = False

        def build():
            dual = counter_batch_dual(
                [FAMILY_FACTORIES[family](n, i) for i in range(replicas)], replicas
            )
            return lambda round: dual.round_masks(round, active)

        growth = steady_state_peak_growth(build)
        assert growth < replicas * n * n, (family, growth)


#: the three families whose duals draw ``(R, n, n)`` link coins and honour
#: ``active``; the other two draw ``(R, n)`` and stay whole.
LINK_COIN_FAMILIES = ("bursty", "coordinator", "kernel")


def _scratch_buffers(dual):
    """Every persistent full-shape buffer a dual draws in."""
    draw, coins = dual._link_scratch()
    buffers = [draw.hashes, draw.shifted, coins]
    for name in ("_bursty", "_alt_coins"):
        if hasattr(dual, name):
            buffers.append(getattr(dual, name))
    return buffers


class _NeverQueried:
    """Stands in for the scalar twin of a retired replica."""

    def ho_mask(self, round, process):
        raise AssertionError(f"retired replica queried at round {round}")


class TestPartiallyActiveDraws:
    """A finished replica is not drawn: the link-coin duals compute only the
    active rows, which stay bit-identical to scalar oracles that are never
    asked about a round after their replica stopped."""

    #: per replica, the last round it is active (5 replicas, 9 rounds).
    RETIREMENTS = {
        "staggered": (9, 4, 0, 6, 2),  # replica 2 never runs at all
        "all-but-one": (0, 0, 9, 0, 0),
        "one-early": (9, 9, 9, 1, 9),
    }

    @pytest.mark.parametrize("schedule", sorted(RETIREMENTS))
    @pytest.mark.parametrize("family", LINK_COIN_FAMILIES)
    @pytest.mark.parametrize("n", [3, 8, 65])
    def test_active_rows_equal_fresh_scalar_oracles(self, family, n, schedule):
        last_round = self.RETIREMENTS[schedule]
        replicas = len(last_round)
        dual = counter_batch_dual(
            [FAMILY_FACTORIES[family](n, 70 + i) for i in range(replicas)], replicas
        )
        shadows = [FAMILY_FACTORIES[family](n, 70 + i) for i in range(replicas)]
        kept = kept_copy = None
        for round in range(1, 10):
            active = np.array([round <= last for last in last_round])
            for i in np.flatnonzero(~active):
                shadows[i] = _NeverQueried()
            words = dual.round_masks(round, active)
            assert words.shape == (replicas, n, (n + 63) // 64)
            assert words.dtype == np.uint64
            for i in np.flatnonzero(active):
                assert words_as_masks(words[i : i + 1], 1, n)[0] == [
                    shadows[i].ho_mask(round, p) for p in range(n)
                ], f"{family} replica {i} diverges at round {round}"
            # Last round's words survived this draw and are nobody's scratch.
            if kept is not None:
                assert np.array_equal(kept, kept_copy)
            for buffer in _scratch_buffers(dual):
                assert not np.shares_memory(words, buffer)
            kept, kept_copy = words, words.copy()

    @pytest.mark.parametrize("family", LINK_COIN_FAMILIES)
    def test_an_all_active_round_is_the_whole_batch_path(self, family):
        """Same words whether a batch is drawn whole or as two half-active
        batches -- and a whole draw after partial ones is unaffected by them
        (the stateless families; the bursty dual refuses a resume)."""
        replicas, n = 6, 8
        build = lambda: counter_batch_dual(
            [FAMILY_FACTORIES[family](n, 90 + i) for i in range(replicas)], replicas
        )
        whole, evens, odds = build(), build(), build()
        everyone = np.ones(replicas, dtype=bool)
        even = np.arange(replicas) % 2 == 0
        for round in range(1, 6):
            want = whole.round_masks(round, everyone)
            assert np.array_equal(evens.round_masks(round, even)[even], want[even])
            assert np.array_equal(odds.round_masks(round, ~even)[~even], want[~even])
        if family != "bursty":
            assert np.array_equal(
                evens.round_masks(6, everyone), whole.round_masks(6, everyone)
            )

    def test_no_active_replica_draws_nothing(self):
        for family in LINK_COIN_FAMILIES:
            dual = counter_batch_dual(
                [FAMILY_FACTORIES[family](8, 5 + i) for i in range(3)], 3
            )
            words = dual.round_masks(1, np.zeros(3, dtype=bool))
            assert words.shape == (3, 8, 1) and not words.any()


class TestBurstyFixedLossCoin:
    """With both loss probabilities 0 or 1 a link's outcome is a function of
    its state, so the bursty dual hashes no ``(1, r, p, q)`` loss coin; with
    either strictly between, it hashes one per link and round."""

    @pytest.mark.parametrize(
        "loss_burst, loss_good",
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.7, 0.15)],
    )
    def test_masks_equal_on_every_round_prefix(self, loss_burst, loss_good, monkeypatch):
        from repro.adversaries import counter_batch

        hashed_tags = set()
        hash_array = counter_batch.counter_hash_array

        def recording(keys, counters, out=None):
            hashed_tags.add(int(counters[0]))
            return hash_array(keys, counters, out=out)

        monkeypatch.setattr(counter_batch, "counter_hash_array", recording)
        n, replicas = 6, 4

        def make(seed):
            return BurstyLossOracle(
                n, p_burst=0.3, p_recover=0.3,
                loss_burst=loss_burst, loss_good=loss_good, seed=seed,
            )

        dual = counter_batch_dual([make(30 + i) for i in range(replicas)], replicas)
        shadows = [make(30 + i) for i in range(replicas)]
        for round in range(1, 16):
            assert dual_masks(dual, round, replicas, n) == scalar_masks(
                shadows, round
            ), f"diverges at round {round}"
        fixed = {loss_burst, loss_good} <= {0.0, 1.0}
        assert hashed_tags == ({0} if fixed else {0, 1})


class TestRetiredReplicaStaysRetired:
    """The bursty dual's link states stop advancing when a replica goes
    inactive, so marking it active again is an error, never stale state."""

    def make(self, replicas=4, n=6, **kwargs):
        return counter_batch_dual(
            [
                BurstyLossOracle(n, p_burst=0.3, p_recover=0.3, seed=i, **kwargs)
                for i in range(replicas)
            ],
            replicas,
        )

    def test_a_resumed_replica_is_a_lookup_error(self):
        dual = self.make()
        everyone = np.ones(4, dtype=bool)
        dual.round_masks(1, everyone)
        dual.round_masks(2, np.array([True, False, True, True]))
        dual.round_masks(3, np.array([True, False, True, False]))
        with pytest.raises(LookupError, match=r"replica 3 .* round 4 .* retired in round 3"):
            dual.round_masks(4, np.array([True, False, True, True]))
        with pytest.raises(LookupError, match=r"replica 1 .* round 4 .* retired in round 2"):
            dual.round_masks(4, everyone)
        # The refusal changed nothing: the survivors carry on, bit-identical.
        shadows = [BurstyLossOracle(6, p_burst=0.3, p_recover=0.3, seed=i) for i in (0, 2)]
        for round in range(1, 4):
            for shadow in shadows:
                shadow.ho_mask(round, 0)
        words = dual.round_masks(4, np.array([True, False, True, False]))
        for row, shadow in zip((0, 2), shadows):
            assert words_as_masks(words[row : row + 1], 1, 6)[0] == [
                shadow.ho_mask(4, p) for p in range(6)
            ]

    def test_the_same_round_may_be_asked_again_with_fewer_replicas(self):
        """A re-query of the frontier round returns the memoised words and
        retires nobody: the link states did advance through that round."""
        dual = self.make()
        everyone = np.ones(4, dtype=bool)
        first = dual.round_masks(1, everyone)
        again = dual.round_masks(1, np.array([True, True, False, True]))
        assert np.array_equal(first, again)
        dual.round_masks(2, everyone)

    def test_stable_rounds_are_exempt(self):
        """Past ``stable_from`` no link state is read, so nothing is stale."""
        dual = self.make(stable_from=3)
        dual.round_masks(1, np.ones(4, dtype=bool))
        dual.round_masks(2, np.array([True, False, False, True]))
        words = dual.round_masks(3, np.ones(4, dtype=bool))
        assert words_as_masks(words, 4, 6) == [[(1 << 6) - 1] * 6] * 4

    @pytest.mark.parametrize("family", ["coordinator", "kernel"])
    def test_the_stateless_duals_need_no_guard(self, family):
        replicas, n = 3, 5
        dual = counter_batch_dual(
            [FAMILY_FACTORIES[family](n, 30 + i) for i in range(replicas)], replicas
        )
        shadows = [FAMILY_FACTORIES[family](n, 30 + i) for i in range(replicas)]
        dual.round_masks(1, np.array([True, False, True]))
        words = dual.round_masks(2, np.ones(replicas, dtype=bool))
        assert words_as_masks(words, replicas, n) == scalar_masks(shadows, 2)


class TestDualEligibility:
    def test_every_registered_family_offers_the_eligibility_handshake(self):
        assert _DUALS
        for family, dual in _DUALS.items():
            assert callable(getattr(family, "counter_batch_signature", None)), family
            assert inspect.isclass(dual), (family, dual)

    def test_mixed_signature_gets_no_dual(self):
        oracles = [
            MobileOmissionOracle(5, faults=1, seed=0),
            MobileOmissionOracle(5, faults=2, seed=1),
        ]
        assert counter_batch_dual(oracles, 2) is None

    def test_mixed_family_gets_no_dual(self):
        oracles = [
            MobileOmissionOracle(5, faults=1, seed=0),
            BurstyLossOracle(5, seed=1),
        ]
        assert counter_batch_dual(oracles, 2) is None

    def test_vectorize_prefers_dual_over_per_replica(self):
        oracles = [MobileOmissionOracle(6, faults=2, seed=i) for i in range(3)]
        batch_oracle = vectorize_oracles(oracles, 3)
        assert not isinstance(batch_oracle, PerReplicaBatchOracle)


class TestIntersectDecomposition:
    def make(self, components_for_seed, replicas=3, n=5):
        return vectorize_oracles(
            [
                IntersectOracle(n, *components_for_seed(n, seed))
                for seed in range(replicas)
            ],
            replicas,
        )

    def test_two_counter_components_decompose(self):
        """Multiple *stateful* components are fine once counter-based --
        the guard only counts opaque sequential components."""
        batch_oracle = self.make(
            lambda n, seed: (
                MobileOmissionOracle(n, faults=1, seed=seed),
                BurstyLossOracle(n, p_burst=0.2, p_recover=0.5, seed=seed),
            )
        )
        assert isinstance(batch_oracle, IntersectBatchOracle)

    def test_counter_plus_one_sequential_decomposes(self):
        batch_oracle = self.make(
            lambda n, seed: (
                MobileOmissionOracle(n, faults=1, seed=seed),
                RandomOmissionOracle(n, 0.2, rng=SeededRng(seed)),
            )
        )
        assert isinstance(batch_oracle, IntersectBatchOracle)

    def test_two_sequential_components_stay_opaque(self):
        """Two random.Random-driven components share draw interleaving;
        decomposition would reorder it, so the whole intersect stays on
        the per-replica loop."""
        batch_oracle = self.make(
            lambda n, seed: (
                RandomOmissionOracle(n, 0.1, rng=SeededRng(seed)),
                RandomOmissionOracle(n, 0.2, rng=SeededRng(1000 + seed)),
            )
        )
        assert isinstance(batch_oracle, PerReplicaBatchOracle)

    def test_decomposed_intersect_matches_scalar(self):
        from repro.batch.arrays import mask_from_words_row

        n, replicas = 6, 3

        def build(seed):
            return IntersectOracle(
                n,
                StaticCrashOracle(n, {n - 1: 3}),
                MobileOmissionOracle(n, faults=1, seed=seed),
                BurstyLossOracle(n, p_burst=0.2, p_recover=0.5, seed=seed),
            )

        batch_oracle = vectorize_oracles([build(s) for s in range(replicas)], replicas)
        assert isinstance(batch_oracle, IntersectBatchOracle)
        shadows = [build(s) for s in range(replicas)]
        for round in range(1, 12):
            words = batch_oracle.round_masks(round, np.ones(replicas, dtype=bool))
            for r in range(replicas):
                for p in range(n):
                    assert mask_from_words_row(words[r, p]) == shadows[r].ho_mask(
                        round, p
                    )
