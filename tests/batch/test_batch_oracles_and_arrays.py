"""The batched environment layer and the uint64 array boundary."""

from __future__ import annotations

import pytest

from repro.adversaries import (
    BurstyLossOracle,
    FaultFreeOracle,
    IntersectOracle,
    MobileOmissionOracle,
    PartitionOracle,
    RandomOmissionOracle,
    ScriptedOracle,
    SequenceOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
    vectorize_oracles,
)
from repro.adversaries.batch import (
    BroadcastBatchOracle,
    IntersectBatchOracle,
    PerReplicaBatchOracle,
    RandomOmissionBatchOracle,
)
from repro.engine.rng import SeededRng


class TestReplicaInvariance:
    def test_classic_deterministic_oracles_are_invariant(self):
        n = 5
        for oracle in (
            FaultFreeOracle(n),
            StaticCrashOracle(n, {4: 2}),
            PartitionOracle(n, [range(2), range(2, 5)]),
            SilentRoundsOracle(n, [3]),
            ScriptedOracle(n, {(1, 0): [0, 1]}),
        ):
            assert oracle.replica_invariant

    def test_seeded_oracles_are_not(self):
        n = 5
        assert not RandomOmissionOracle(n, 0.1).replica_invariant
        assert not MobileOmissionOracle(n, faults=1).replica_invariant
        assert not BurstyLossOracle(n).replica_invariant

    def test_combinators_propagate_invariance(self):
        n = 4
        det = StaticCrashOracle(n, {3: 2})
        noisy = RandomOmissionOracle(n, 0.1)
        assert IntersectOracle(n, det, FaultFreeOracle(n)).replica_invariant
        assert not IntersectOracle(n, det, noisy).replica_invariant
        assert SequenceOracle(n, [(det, 3), (FaultFreeOracle(n), None)]).replica_invariant
        assert not SequenceOracle(n, [(noisy, 3), (det, None)]).replica_invariant


class TestVectorizeOracles:
    def _masks_as_ints(self, words):
        from repro.batch.arrays import int_masks_from_words

        return [int_masks_from_words(row) for row in words]

    def test_broadcast_for_invariant_oracles(self):
        import numpy as np

        n, replicas = 5, 3
        oracles = [StaticCrashOracle(n, {4: 2})] * replicas
        batch = vectorize_oracles(oracles, replicas)
        assert isinstance(batch, BroadcastBatchOracle)
        active = np.ones(replicas, dtype=bool)
        for round in (1, 2, 5):
            rows = self._masks_as_ints(batch.round_masks(round, active))
            expected = [oracles[0].ho_mask(round, p) for p in range(n)]
            assert rows == [expected] * replicas

    def test_per_replica_for_stateful_oracles(self):
        import numpy as np

        n, replicas = 6, 4
        def fresh():
            return [
                RandomOmissionOracle(n, 0.4, rng=SeededRng(100 + i))
                for i in range(replicas)
            ]

        batch = vectorize_oracles(fresh(), replicas)
        assert isinstance(batch, PerReplicaBatchOracle)
        reference = fresh()
        active = np.ones(replicas, dtype=bool)
        for round in (1, 2, 3):
            rows = self._masks_as_ints(batch.round_masks(round, active))
            for r in range(replicas):
                assert rows[r] == [reference[r].ho_mask(round, p) for p in range(n)]

    def test_heterogeneous_invariant_oracles_are_not_broadcast(self):
        """Replica-invariant but replica-*varying* oracles must not collapse to replica 0's."""
        import numpy as np

        n, replicas = 4, 3
        # Each replica crashes a different process: invariant per oracle,
        # different across replicas -- broadcasting would be silently wrong.
        oracles = [StaticCrashOracle(n, {r: 2}) for r in range(replicas)]
        batch = vectorize_oracles(oracles, replicas)
        assert isinstance(batch, PerReplicaBatchOracle)
        rows = self._masks_as_ints(batch.round_masks(3, np.ones(replicas, dtype=bool)))
        for r in range(replicas):
            assert rows[r] == [oracles[r].ho_mask(3, p) for p in range(n)]

    @staticmethod
    def _crash_then_recover(n):
        return SequenceOracle(
            n, [(StaticCrashOracle(n, {3: 1}), 2), (FaultFreeOracle(n), None)]
        )

    def test_one_shared_combinator_broadcasts(self):
        n, replicas = 4, 3
        oracle = self._crash_then_recover(n)
        batch = vectorize_oracles([oracle] * replicas, replicas)
        assert isinstance(batch, BroadcastBatchOracle)
        assert batch.oracle is oracle

    def test_distinct_but_equal_combinators_take_the_loop_with_scalar_masks(self):
        """Equal-looking objects are not compared: only identity broadcasts."""
        import numpy as np

        n, replicas = 4, 3
        oracles = [self._crash_then_recover(n) for _ in range(replicas)]
        batch = vectorize_oracles(oracles, replicas)
        assert type(batch) is PerReplicaBatchOracle
        active = np.ones(replicas, dtype=bool)
        for round in (1, 2, 3, 4):
            rows = self._masks_as_ints(batch.round_masks(round, active))
            expected = [oracles[0].ho_mask(round, p) for p in range(n)]
            assert rows == [expected] * replicas

    def test_inactive_replicas_are_not_queried(self):
        import numpy as np

        n, replicas = 4, 3

        class Counting(FaultFreeOracle):
            replica_invariant = False

            def __init__(self, n):
                super().__init__(n)
                self.queries = 0

            def ho_mask(self, round, process):
                self.queries += 1
                return super().ho_mask(round, process)

        oracles = [Counting(n) for _ in range(replicas)]
        batch = vectorize_oracles(oracles, replicas)
        active = np.array([True, False, True])
        batch.round_masks(1, active)
        assert [o.queries for o in oracles] == [n, 0, n]

    def test_mixed_intersect_decomposes_to_broadcast_plus_per_replica(self):
        import numpy as np

        n, replicas = 5, 3

        crash = StaticCrashOracle(n, {n - 1: 2})

        def build(i):
            return IntersectOracle(
                n, crash, RandomOmissionOracle(n, 0.4, rng=SeededRng(10 + i))
            )

        batch = vectorize_oracles([build(i) for i in range(replicas)], replicas)
        assert isinstance(batch, IntersectBatchOracle)
        broadcast, loop = batch.components
        assert isinstance(broadcast, BroadcastBatchOracle)
        assert isinstance(loop, PerReplicaBatchOracle)
        reference = [build(i) for i in range(replicas)]
        active = np.ones(replicas, dtype=bool)
        for round in (1, 2, 3):
            rows = self._masks_as_ints(batch.round_masks(round, active))
            for r in range(replicas):
                assert rows[r] == [reference[r].ho_mask(round, p) for p in range(n)]

    def test_two_stateful_intersect_components_stay_per_replica(self):
        # Two randomness-drawing components could share a stream; the
        # decomposition must refuse and keep whole-oracle per-replica order.
        n, replicas = 4, 2

        def build(i):
            rng = SeededRng(20 + i)
            return IntersectOracle(
                n,
                RandomOmissionOracle(n, 0.2, rng=rng),
                RandomOmissionOracle(n, 0.3, seed=99 + i),
            )

        batch = vectorize_oracles([build(i) for i in range(replicas)], replicas)
        assert isinstance(batch, PerReplicaBatchOracle)

    def test_intersect_batch_oracle(self):
        import numpy as np

        n, replicas = 5, 2
        a = vectorize_oracles([StaticCrashOracle(n, {4: 1})] * replicas, replicas)
        b = vectorize_oracles([PartitionOracle(n, [range(3), range(3, 5)])] * replicas, replicas)
        both = IntersectBatchOracle(a, b)
        scalar = IntersectOracle(
            n, StaticCrashOracle(n, {4: 1}), PartitionOracle(n, [range(3), range(3, 5)])
        )
        rows = self._masks_as_ints(both.round_masks(2, np.ones(replicas, dtype=bool)))
        assert rows[0] == [scalar.ho_mask(2, p) for p in range(n)]


class TestBroadcastRowReuse:
    """An unchanged broadcast row is not re-spilled; the oracle is still asked."""

    def test_row_follows_phase_boundaries_and_queries_repeat(self):
        import numpy as np

        from repro.batch.arrays import int_masks_from_words

        n, replicas = 5, 3

        class Counting(StaticCrashOracle):
            queries = 0

            def ho_mask(self, round, process):
                self.queries += 1
                return super().ho_mask(round, process)

        def build(crash):
            return SequenceOracle(n, [(crash, 3), (FaultFreeOracle(n), None)])

        counting = Counting(n, {4: 2})
        batch = vectorize_oracles([build(counting)] * replicas, replicas)
        assert isinstance(batch, BroadcastBatchOracle)
        reference = build(StaticCrashOracle(n, {4: 2}))
        active = np.ones(replicas, dtype=bool)
        views = []
        for round in range(1, 7):
            words = batch.round_masks(round, active)
            views.append(words)
            expected = [reference.ho_mask(round, p) for p in range(n)]
            assert [int_masks_from_words(row) for row in words] == [expected] * replicas
        # One view for the whole run, and n scalar queries in each of the
        # three rounds the counting phase covers.
        assert all(view is views[0] for view in views)
        assert counting.queries == 3 * n


def check_bulk_draw_parity(n, loss, always_hear_self, stops, shared=False):
    """The bulk draw against fresh scalar oracles, round by round.

    ``stops[r]`` is the last round replica r is active (0 = never); a
    stopped replica never resumes.  With *shared*, replicas 0 and 1 are
    built on one ``SeededRng`` object: one stream, interleaved draws.
    """
    import numpy as np

    from repro.batch.arrays import int_masks_from_words

    replicas = len(stops)

    def fresh():
        rngs = [SeededRng(40 + r) for r in range(replicas)]
        if shared:
            rngs[-1] = rngs[0]
        return [
            RandomOmissionOracle(n, loss, always_hear_self=always_hear_self, rng=rng)
            for rng in rngs
        ]

    batch = vectorize_oracles(fresh(), replicas)
    assert type(batch) is RandomOmissionBatchOracle
    reference = fresh()
    for round in range(1, max(stops) + 2):
        active = np.array([round <= stop for stop in stops])
        words = batch.round_masks(round, active)
        for r in np.flatnonzero(active):
            assert int_masks_from_words(words[r]) == [
                reference[r].ho_mask(round, p) for p in range(n)
            ], (round, r)
    # Inactive replicas drew nothing: every stream is where its scalar twin
    # stopped (a stopped replica's, where it was when it stopped).
    for mine, scalar in zip(batch.oracles, reference):
        assert mine._stream.getstate() == scalar._stream.getstate()
        assert not mine._memo


BULK_SIZES = [1, 2, 3, 63, 64, 65]


class TestBulkDrawParity:
    @pytest.mark.parametrize("stops", [(3,), (3, 1, 4, 2, 4)], ids=["R1", "R5"])
    @pytest.mark.parametrize("always_hear_self", [True, False])
    @pytest.mark.parametrize("loss", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("n", BULK_SIZES)
    def test_fixed_table(self, n, loss, always_hear_self, stops):
        check_bulk_draw_parity(n, loss, always_hear_self, stops)

    @pytest.mark.parametrize("always_hear_self", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_two_replicas_on_one_rng_object(self, n, always_hear_self):
        check_bulk_draw_parity(n, 0.3, always_hear_self, (3, 2, 3), shared=True)

    def test_generated(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            n=st.sampled_from(BULK_SIZES),
            loss=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            always_hear_self=st.booleans(),
            stops=st.lists(st.integers(0, 4), min_size=1, max_size=5),
            shared=st.booleans(),
        )
        def check(n, loss, always_hear_self, stops, shared):
            check_bulk_draw_parity(n, loss, always_hear_self, stops, shared)

        check()

    def test_the_drawn_entries_are_a_view(self):
        """The scatter writes through: a copy there would silently drop draws."""
        import numpy as np

        batch = RandomOmissionBatchOracle([RandomOmissionOracle(5, 0.5, seed=s) for s in (1, 2)])
        assert np.shares_memory(batch._drawn, batch._heard)
        assert batch._drawn.shape == (2, 4, 5)
        batch._drawn[:] = False
        assert (batch._heard == np.eye(5, dtype=bool)).all()


class TestWhoGetsTheBulkDraw:
    """``vectorize_oracles`` bulk-draws exactly a uniform batch of untouched plain oracles."""

    n, replicas = 4, 3

    def _lossy(self, i, cls=RandomOmissionOracle, loss=0.2, always_hear_self=True):
        return cls(self.n, loss, always_hear_self=always_hear_self, rng=SeededRng(60 + i))

    def _kind(self, oracles):
        return type(vectorize_oracles(oracles, self.replicas))

    def test_uniform_plain_batch_is_bulk_drawn(self):
        batch = vectorize_oracles([self._lossy(i) for i in range(self.replicas)], self.replicas)
        assert type(batch) is RandomOmissionBatchOracle
        # ... and is still the sequential loop to every isinstance check.
        assert isinstance(batch, PerReplicaBatchOracle)

    def test_subclass_keeps_the_generic_loop(self):
        class Tweaked(RandomOmissionOracle):
            pass

        oracles = [self._lossy(i, cls=Tweaked if i == 1 else RandomOmissionOracle)
                   for i in range(self.replicas)]
        assert self._kind(oracles) is PerReplicaBatchOracle

    def test_differing_loss_probability_keeps_the_generic_loop(self):
        oracles = [self._lossy(i, loss=0.2 + 0.1 * (i == 2)) for i in range(self.replicas)]
        assert self._kind(oracles) is PerReplicaBatchOracle

    def test_differing_always_hear_self_keeps_the_generic_loop(self):
        oracles = [self._lossy(i, always_hear_self=i != 0) for i in range(self.replicas)]
        assert self._kind(oracles) is PerReplicaBatchOracle

    def test_an_already_queried_oracle_keeps_the_generic_loop(self):
        import numpy as np

        from repro.batch.arrays import int_masks_from_words

        def fresh():
            oracles = [self._lossy(i) for i in range(self.replicas)]
            oracles[1].ho_mask(1, 2)  # memoised before vectorisation
            return oracles

        batch = vectorize_oracles(fresh(), self.replicas)
        assert type(batch) is PerReplicaBatchOracle
        reference = fresh()
        words = batch.round_masks(1, np.ones(self.replicas, dtype=bool))
        for r in range(self.replicas):
            assert int_masks_from_words(words[r]) == [
                reference[r].ho_mask(1, p) for p in range(self.n)
            ]

    def test_lossy_overlay_component_is_bulk_drawn(self):
        crash = StaticCrashOracle(self.n, {3: 2})

        def build(i):
            return IntersectOracle(self.n, crash, self._lossy(i))

        batch = vectorize_oracles([build(i) for i in range(self.replicas)], self.replicas)
        assert [type(c) for c in batch.components] == [
            BroadcastBatchOracle, RandomOmissionBatchOracle,
        ]


class TestArrayBoundary:
    @pytest.mark.parametrize("n", [5, 63, 64, 65, 128])
    def test_pack_unpack_round_trip(self, n):
        import numpy as np

        from repro.batch.arrays import (
            pack_bools,
            popcount_words,
            unpack_words,
            words_array_from_masks,
        )
        from repro.rounds.bitmask import bit_count, full_mask, mask_of

        masks = [
            0,
            full_mask(n),
            mask_of({0, n - 1}),
            mask_of({p for p in range(n) if p % 5 == 2}),
        ]
        words = words_array_from_masks(masks, n)
        bits = unpack_words(words, n)
        assert bits.shape == (len(masks), n)
        for i, mask in enumerate(masks):
            assert [int(b) for b in bits[i]] == [(mask >> p) & 1 for p in range(n)]
        assert popcount_words(words).tolist() == [bit_count(m) for m in masks]
        repacked = pack_bools(bits, n)
        assert np.array_equal(repacked, words)


WORD_SPILL_SIZES = [1, 7, 63, 64, 65, 127, 128, 129]


class TestPackUnpackLayout:
    """``pack_bools`` / ``unpack_words`` against ``mask_to_words``, the one
    definition of the word-spill layout, at every word boundary."""

    @staticmethod
    def _bits(np, lead, n):
        size = int(np.prod(lead, dtype=np.int64)) * n
        # A fixed, aperiodic pattern: no word or byte of it repeats.
        flat = (np.arange(size, dtype=np.int64) * 2654435761 >> 7) % 3 == 0
        return flat.reshape(*lead, n)

    @staticmethod
    def _reference_words(np, bits, n):
        from repro.rounds.bitmask import mask_to_words

        rows = bits.reshape(-1, n)
        words = [
            mask_to_words(sum(1 << q for q in range(n) if row[q]), n) for row in rows
        ]
        return np.array(words, dtype=np.uint64).reshape(*bits.shape[:-1], -1)

    @pytest.mark.parametrize("n", WORD_SPILL_SIZES)
    @pytest.mark.parametrize("lead", ["scalar", "rows", "replica_rows"])
    def test_round_trip_equals_mask_to_words(self, n, lead):
        import numpy as np

        from repro.batch.arrays import pack_bools, unpack_words
        from repro.rounds.bitmask import word_count

        shape = {"scalar": (), "rows": (n,), "replica_rows": (3, n)}[lead]
        bits = self._bits(np, shape, n)
        words = pack_bools(bits, n)
        assert words.dtype == np.uint64
        assert words.shape == (*shape, word_count(n))
        assert np.array_equal(words, self._reference_words(np, bits, n))

        fresh = unpack_words(words, n)
        assert fresh.dtype == np.bool_ and np.array_equal(fresh, bits)
        out = np.ones((*shape, n), dtype=bool)
        assert unpack_words(words, n, out=out) is out
        assert np.array_equal(out, bits)

    @pytest.mark.parametrize("n", [7, 64, 65])
    def test_pack_accepts_non_bool_and_non_contiguous_input(self, n):
        import numpy as np

        from repro.batch.arrays import pack_bools

        bits = self._bits(np, (3, n), n)
        want = self._reference_words(np, bits, n)
        assert np.array_equal(pack_bools(bits.astype(np.int64), n), want)
        assert np.array_equal(pack_bools(bits.astype(np.float64), n), want)
        strided = np.zeros((3, n, n, 2), dtype=bool)
        strided[..., 0] = bits
        assert not strided[..., 0].flags.c_contiguous
        assert np.array_equal(pack_bools(strided[..., 0], n), want)
        transposed = np.ascontiguousarray(bits.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert np.array_equal(pack_bools(transposed, n), want)

    @pytest.mark.parametrize("n", [7, 64, 65])
    def test_pack_result_is_never_a_view_of_its_input(self, n):
        import numpy as np

        from repro.batch.arrays import pack_bools

        bits = self._bits(np, (n,), n)
        words = pack_bools(bits, n)
        kept = words.copy()
        bits[...] = ~bits
        assert np.array_equal(words, kept)

    @pytest.mark.parametrize("n", [7, 64, 65])
    def test_unpack_accepts_read_only_broadcast_rows(self, n):
        """The shape ``_CounterDualBase._full_rows()`` hands the engines:
        one constant row of words broadcast to ``(R, n, W)`` with stride 0."""
        import numpy as np

        from repro.batch.arrays import pack_bools, unpack_words
        from repro.rounds.bitmask import word_count

        full = pack_bools(np.ones((1, n), dtype=bool), n)
        rows = np.broadcast_to(full, (4, n, word_count(n)))
        assert not rows.flags.writeable and rows.strides[0] == 0
        out = np.zeros((4, n, n), dtype=bool)
        assert unpack_words(rows, n, out=out).all()
        assert unpack_words(rows, n).all()
