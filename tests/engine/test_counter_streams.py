"""Draw-order invariance of the counter-based random streams.

The whole point of :mod:`repro.engine.counter` is that a draw is a pure
function of ``(stream key, counter tuple)`` -- no sequence position, no
hidden cursor.  These tests pin the properties the scalar oracles and the
batch duals both rely on: scalar/array bit-identity on every prefix, the
leading-tag decorrelation convention, the ``SeededRng`` named-stream and
``replicate(i)`` contracts, and basic uniformity sanity.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy, require_numpy
from repro.engine import counter
from repro.engine.counter import (
    CounterStream,
    DrawScratch,
    coin_threshold,
    coins_below,
    coins_not_below,
    counter_hash,
    counter_hash_array,
    mix64,
    unit_of,
    units_of_array,
    units_of_counters,
)
from repro.engine.rng import SeededRng, derive_seed

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


class TestScalarStream:
    def test_draws_are_pure_functions_of_counters(self):
        """Query order cannot matter: re-asking yields the same value."""
        stream = CounterStream(derive_seed(7, "oracle.test"))
        forward = [stream.hash(r, q) for r in range(10) for q in range(5)]
        backward = [
            stream.hash(r, q) for r in reversed(range(10)) for q in reversed(range(5))
        ]
        backward.reverse()
        # backward iterated (r, q) in reverse lexicographic order; realign.
        realigned = [
            stream.hash(r, q) for r in range(10) for q in range(5)
        ]
        assert forward == realigned
        assert sorted(forward) == sorted(backward)

    def test_arity_and_leading_tag_decorrelate(self):
        """(a, b) is not a prefix extension of (a): tuples of different
        shapes and different leading tags give independent draws."""
        stream = CounterStream(123456789)
        assert stream.hash(3) != stream.hash(3, 0)
        assert stream.hash(0, 5, 2) != stream.hash(1, 5, 2)
        assert stream.hash(2, 7) != stream.hash(7, 2)

    def test_unit_in_range_and_deterministic(self):
        stream = CounterStream(42)
        units = [stream.unit(0, r, p) for r in range(50) for p in range(4)]
        assert all(0.0 <= u < 1.0 for u in units)
        assert units == [stream.unit(0, r, p) for r in range(50) for p in range(4)]

    def test_mod_and_below_derive_from_hash(self):
        stream = CounterStream(42)
        assert stream.mod(7, 1, 2) == stream.hash(1, 2) % 7
        assert stream.below(0.5, 1, 2) == (unit_of(stream.hash(1, 2)) < 0.5)

    def test_mix64_is_bijective_on_samples(self):
        values = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]
        assert len({mix64(v) for v in values}) == len(values)

    def test_unit_histogram_is_roughly_uniform(self):
        stream = CounterStream(derive_seed(0, "oracle.uniformity"))
        draws = [stream.unit(i) for i in range(4000)]
        buckets = [0] * 8
        for u in draws:
            buckets[int(u * 8)] += 1
        assert all(350 < b < 650 for b in buckets)


class TestSeededRngContract:
    def test_counter_stream_keys_are_name_separated(self):
        rng = SeededRng(11)
        a = rng.counter_stream("oracle.mobile")
        b = rng.counter_stream("oracle.partition")
        assert a.key != b.key
        assert a.key == SeededRng(11).counter_stream("oracle.mobile").key

    def test_replicate_matches_seed_plus_i(self):
        """replicate(i) == an independent run seeded seed + i, for counter
        streams exactly as for the sequential named streams."""
        base = SeededRng(100)
        for i in range(5):
            replica_key = base.replicate(i).counter_stream("oracle.burst").key
            direct_key = SeededRng(100 + i).counter_stream("oracle.burst").key
            assert replica_key == direct_key


@needs_numpy
class TestArrayDual:
    def test_bit_identity_on_every_prefix(self):
        """The numpy path equals the scalar path element for element --
        single counters, multi-counter tuples, and every prefix length."""
        np = require_numpy()
        key = derive_seed(3, "oracle.dual")
        stream = CounterStream(key)
        for arity in (1, 2, 3, 4):
            counters = [np.arange(64, dtype=np.uint64) + np.uint64(t) for t in range(arity)]
            hashes = counter_hash_array(np, np.uint64(key), counters)
            scalars = [
                stream.hash(*(int(c[i]) for c in counters)) for i in range(64)
            ]
            assert [int(h) for h in hashes] == scalars

    def test_units_bit_identical(self):
        np = require_numpy()
        key = derive_seed(9, "oracle.dual")
        stream = CounterStream(key)
        hashes = counter_hash_array(
            np, np.uint64(key), [np.uint64(0), np.arange(128, dtype=np.uint64)]
        )
        units = units_of_array(np, hashes)
        assert [float(u) for u in units] == [stream.unit(0, q) for q in range(128)]

    def test_broadcast_shapes(self):
        np = require_numpy()
        keys = np.array([1, 2, 3], dtype=np.uint64)[:, None]
        counters = [np.uint64(5), np.arange(4, dtype=np.uint64)[None, :]]
        hashes = counter_hash_array(np, keys, counters)
        assert hashes.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert int(hashes[i, j]) == counter_hash(i + 1, 5, j)

    def test_uint64_wraparound_not_promoted(self):
        """numpy 1.x promotes uint64 + python-int to float64; the array
        implementation must stay in uint64 (otherwise the wraparound --
        and hence bit-identity -- is destroyed)."""
        np = require_numpy()
        big = 2**64 - 1
        hashes = counter_hash_array(
            np, np.uint64(big), [np.array([big], dtype=np.uint64)]
        )
        assert hashes.dtype == np.uint64
        assert int(hashes[0]) == counter_hash(big, big)


def _dual_draw_shapes(np):
    """``(name, keys, counters)`` of every counter arity the batch duals draw.

    The shapes of :mod:`repro.adversaries.counter_batch` at R=3, n=5, plus
    the all-scalar draw whose broadcast shape is 0-d.
    """
    keys = np.array([11, 2**64 - 1, 2**63 + 5], dtype=np.uint64)
    procs = np.arange(5, dtype=np.uint64)
    r = np.uint64(7)
    return [
        ("scalar", np.uint64(11), [np.uint64(2), r]),
        ("per-replica", keys, [np.uint64(0), r]),
        ("per-process", keys[:, None], [r, procs]),
        ("tagged-per-process", keys[:, None], [np.uint64(1), r, procs]),
        (
            "per-link",
            keys[:, None, None],
            [np.uint64(2), r, procs[:, None], procs[None, :]],
        ),
    ]


@needs_numpy
class TestDrawScratch:
    """``out=`` only moves where the stages are written, never what they hold."""

    @pytest.mark.parametrize("index", range(5))
    def test_out_is_bit_identical_to_fresh(self, index):
        np = require_numpy()
        name, keys, counters = _dual_draw_shapes(np)[index]
        want_hash = counter_hash_array(np, keys, counters)
        want_units = units_of_array(np, want_hash)
        assert want_hash.dtype == np.uint64 and want_units.dtype == np.float64

        # Twice over the same scratch: the second draw must not be
        # contaminated by what the first left behind.
        scratch = DrawScratch(np, want_hash.shape)
        for _ in range(2):
            got_hash = counter_hash_array(np, keys, counters, out=scratch)
            assert got_hash is scratch.hashes, name
            assert np.array_equal(got_hash, want_hash), name
            assert np.array_equal(units_of_array(np, got_hash), want_units), name
        assert np.array_equal(units_of_counters(np, keys, counters), want_units), name

    def test_scalar_oracle_agrees_with_the_out_path(self):
        """Hash, uniform and coin of the scratch draw are the scalar stream's."""
        np = require_numpy()
        _, keys, counters = _dual_draw_shapes(np)[4]
        scratch = DrawScratch(np, (3, 5, 5))
        hashes = counter_hash_array(np, keys, counters, out=scratch)
        units = units_of_array(np, hashes)
        coins = coins_below(np, hashes, coin_threshold(0.3))
        for i in range(3):
            stream = CounterStream(int(keys[i, 0, 0]))
            for p in range(5):
                for q in range(5):
                    assert int(hashes[i, p, q]) == stream.hash(2, 7, p, q)
                    assert float(units[i, p, q]) == stream.unit(2, 7, p, q)
                    assert bool(coins[i, p, q]) == stream.below(0.3, 2, 7, p, q)

    def test_mismatched_scratch_is_an_error(self):
        """A scratch of another shape is a caller bug, not a silent fallback."""
        np = require_numpy()
        _, keys, counters = _dual_draw_shapes(np)[3]
        for shape in ((3, 5, 5), (3,), (5, 3), ()):
            with pytest.raises(ValueError, match="does not fit"):
                counter_hash_array(np, keys, counters, out=DrawScratch(np, shape))

    def test_inputs_are_never_written(self):
        np = require_numpy()
        keys = np.arange(12, dtype=np.uint64).reshape(3, 4)
        counter = np.arange(12, dtype=np.uint64).reshape(3, 4) + np.uint64(100)
        kept = keys.copy(), counter.copy()
        scratch = DrawScratch(np, (3, 4))
        counter_hash_array(np, keys, [counter, counter], out=scratch)
        assert np.array_equal(keys, kept[0]) and np.array_equal(counter, kept[1])

    def test_the_shift_buffer_is_one_block(self):
        """Hash buffer full shape, shift buffer the leading rows that hold
        one block of elements -- all of them when the draw is smaller."""
        np = require_numpy()
        per_row = 64 * 64
        rows = counter._BLOCK_ELEMS // per_row
        assert rows >= 1
        big = DrawScratch(np, (4 * rows, 64, 64))
        assert big.hashes.shape == (4 * rows, 64, 64)
        assert big.shifted.shape == (rows, 64, 64)
        small = DrawScratch(np, (3, 5, 5))
        assert small.shifted.shape == small.hashes.shape == (3, 5, 5)
        assert DrawScratch(np, ()).shifted.shape == ()
        # A row larger than a block still gets one whole row.
        wide = DrawScratch(np, (2, 2 * counter._BLOCK_ELEMS))
        assert wide.shifted.shape == (1, 2 * counter._BLOCK_ELEMS)
        lead = big.leading(rows + 1)
        assert lead.hashes.shape == (rows + 1, 64, 64)
        assert np.shares_memory(lead.hashes, big.hashes)
        assert np.shares_memory(lead.shifted, big.shifted)


@needs_numpy
class TestTiledStage:
    """A full-shape stage runs block by block along axis 0; the values are
    those of the expression path and of the scalar hash, whatever the split."""

    TILE = 3  # rows per block, via a monkeypatched block constant

    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    @pytest.mark.parametrize("rows", [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 2])
    def test_tiled_draw_equals_the_expression_path(self, monkeypatch, rows, n):
        np = require_numpy()
        monkeypatch.setattr(counter, "_BLOCK_ELEMS", self.TILE * n * n)
        keys = (np.arange(rows, dtype=np.uint64) + np.uint64(3)) * np.uint64(2**61 - 1)
        keys = keys[:, None, None]
        procs = np.arange(n, dtype=np.uint64)
        counters = [np.uint64(2), np.uint64(7), procs[:, None], procs[None, :]]
        kept = keys.copy(), procs.copy()
        scratch = DrawScratch(np, (rows, n, n))
        assert scratch.shifted.shape[0] == min(rows, self.TILE)
        want = counter_hash_array(np, keys, counters)
        for _ in range(2):
            got = counter_hash_array(np, keys, counters, out=scratch)
            assert got is scratch.hashes and got.shape == (rows, n, n)
            assert np.array_equal(got, want)
        assert np.array_equal(keys, kept[0]) and np.array_equal(procs, kept[1])
        for i, p, q in {(0, 0, 0), (rows - 1, n - 1, n // 2), (rows // 2, n // 3, n - 1)}:
            assert int(got[i, p, q]) == counter_hash(int(keys[i, 0, 0]), 2, 7, p, q)

    @pytest.mark.parametrize("rows", [TILE, TILE + 1, 3 * TILE + 2])
    def test_two_full_shape_stages_in_a_row(self, monkeypatch, rows):
        """The second stage finds ``out.hashes`` holding the first's result
        and must bump and absorb it in place, block by block."""
        np = require_numpy()
        n = 5
        monkeypatch.setattr(counter, "_BLOCK_ELEMS", self.TILE * n)
        keys = np.arange(rows, dtype=np.uint64)[:, None] + np.uint64(2**63)
        first = np.arange(rows * n, dtype=np.uint64).reshape(rows, n)
        second = first[::-1].copy()
        kept = keys.copy(), first.copy(), second.copy()
        scratch = DrawScratch(np, (rows, n))
        got = counter_hash_array(np, keys, [np.uint64(1), first, second], out=scratch)
        assert got is scratch.hashes
        assert np.array_equal(got, counter_hash_array(np, keys, [np.uint64(1), first, second]))
        for i, j in {(0, 0), (rows - 1, n - 1), (rows // 2, 2)}:
            assert int(got[i, j]) == counter_hash(
                int(keys[i, 0]), 1, int(first[i, j]), int(second[i, j])
            )
        for array, copy in zip((keys, first, second), kept):
            assert np.array_equal(array, copy)

    def test_leading_rows_of_a_scratch_draw_like_their_own_scratch(self, monkeypatch):
        """``DrawScratch.leading(k)`` -- the partially active duals' draw."""
        np = require_numpy()
        n = 4
        monkeypatch.setattr(counter, "_BLOCK_ELEMS", self.TILE * n * n)
        scratch = DrawScratch(np, (8, n, n))
        keys = (np.arange(8, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B9)
        procs = np.arange(n, dtype=np.uint64)
        counters = [np.uint64(0), np.uint64(4), procs[:, None], procs[None, :]]
        for k in (0, 1, self.TILE, self.TILE + 2, 8):
            rows = np.arange(8)[::-1][:k].copy()
            got = counter_hash_array(
                np, keys[rows][:, None, None], counters, out=scratch.leading(k)
            )
            assert got.shape == (k, n, n)
            assert np.shares_memory(got, scratch.hashes) or k == 0
            assert np.array_equal(
                got, counter_hash_array(np, keys[rows][:, None, None], counters)
            )

    def test_a_misfit_scratch_is_still_an_error_when_tiled(self, monkeypatch):
        np = require_numpy()
        monkeypatch.setattr(counter, "_BLOCK_ELEMS", 8)
        keys = np.arange(6, dtype=np.uint64)[:, None]
        procs = np.arange(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="does not fit"):
            counter_hash_array(np, keys, [procs], out=DrawScratch(np, (7, 4)))
        with pytest.raises(ValueError, match="does not fit"):
            counter_hash_array(np, keys, [procs], out=DrawScratch(np, (6, 4)).leading(5))


# Below, C = ceil(p * 2**53) and T = coin_threshold(p) = C << 11.
_TABLE_PROBABILITIES = [
    -0.1, 0.0, 5e-324, 2.0 ** -53, 2.0 ** -53 * 1.5, 0.05, 0.25, 0.5,
    1.0 - 2.0 ** -53, 1.0, 1.5,
]


def _hashes_around(threshold):
    """64-bit hashes on both sides of *threshold* (``= C << 11``) and of its
    53-bit ancestor ``C``, plus the two ends of the range."""
    c = threshold >> 11
    candidates = [
        threshold - 1, threshold, threshold + 1,
        (c - 1) << 11, (c << 11) - 1, 0, 2**64 - 1,
    ]
    return sorted({h for h in candidates if 0 <= h < 2**64})


class TestCoinThreshold:
    """``unit_of(h) < p  <=>  h < coin_threshold(p)``, exactly."""

    def test_known_thresholds(self):
        assert coin_threshold(-0.1) == coin_threshold(0.0) == 0
        assert coin_threshold(1.0) == coin_threshold(1.5) == 2**64
        assert coin_threshold(5e-324) == coin_threshold(2.0 ** -53) == 1 << 11
        assert coin_threshold(2.0 ** -53 * 1.5) == 2 << 11
        assert coin_threshold(0.5) == 1 << 63
        assert coin_threshold(0.25) == 1 << 62
        assert coin_threshold(1.0 - 2.0 ** -53) == 2**64 - (1 << 11)
        assert all(isinstance(coin_threshold(p), int) for p in _TABLE_PROBABILITIES)

    @pytest.mark.parametrize("p", _TABLE_PROBABILITIES)
    def test_both_forms_agree_with_the_float_comparison(self, p):
        threshold = coin_threshold(p)
        for h in _hashes_around(threshold):
            assert (h < threshold) == (unit_of(h) < p), (p, h)
            assert (h >= threshold) == (unit_of(h) >= p), (p, h)

    @needs_numpy
    @pytest.mark.parametrize("p", _TABLE_PROBABILITIES)
    def test_array_compare_agrees_with_the_float_comparison(self, p):
        np = require_numpy()
        threshold = coin_threshold(p)
        values = _hashes_around(threshold)
        hashes = np.array(values, dtype=np.uint64)
        below = [unit_of(h) < p for h in values]
        assert coins_below(np, hashes, threshold).tolist() == below
        assert coins_not_below(np, hashes, threshold).tolist() == [not b for b in below]
        assert (units_of_array(np, hashes) < p).tolist() == below
        out = np.empty(len(values), dtype=bool)
        assert coins_below(np, hashes, threshold, out=out) is out
        assert out.tolist() == below
        assert coins_not_below(np, hashes, threshold, out=out) is out
        assert out.tolist() == [not b for b in below]

    def test_generated_probabilities_and_hashes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.given(
            p=st.floats(0.0, 1.0), h=st.integers(0, 2**64 - 1), delta=st.integers(-2, 2)
        )
        def check(p, h, delta):
            threshold = coin_threshold(p)
            # The drawn hash, and one hugging the threshold.
            for value in (h, min(max(threshold + delta, 0), 2**64 - 1)):
                assert (value < threshold) == (unit_of(value) < p)
                assert (value >= threshold) == (unit_of(value) >= p)

        check()

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            coin_threshold(float("nan"))
