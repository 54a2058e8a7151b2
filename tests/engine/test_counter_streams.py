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
from repro.engine.counter import (
    CounterStream,
    DrawScratch,
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

        scratch = DrawScratch(np, want_hash.shape)
        got_hash = counter_hash_array(np, keys, counters, out=scratch)
        assert got_hash is scratch.hashes, name
        assert np.array_equal(got_hash, want_hash), name
        got_units = units_of_array(np, got_hash, out=scratch)
        assert got_units is scratch.units, name
        assert np.array_equal(got_units, want_units), name

        # The one-call form, twice over the same scratch: the second draw
        # must not be contaminated by what the first left behind.
        for _ in range(2):
            fused = units_of_counters(np, keys, counters, out=scratch)
            assert np.array_equal(fused, want_units), name
        assert np.array_equal(units_of_counters(np, keys, counters), want_units), name

    def test_scalar_oracle_agrees_with_the_out_path(self):
        np = require_numpy()
        _, keys, counters = _dual_draw_shapes(np)[4]
        scratch = DrawScratch(np, (3, 5, 5))
        units = units_of_counters(np, keys, counters, out=scratch)
        for i in range(3):
            stream = CounterStream(int(keys[i, 0, 0]))
            for p in range(5):
                for q in range(5):
                    assert float(units[i, p, q]) == stream.unit(2, 7, p, q)

    def test_mismatched_scratch_is_an_error(self):
        """A scratch of another shape is a caller bug, not a silent fallback."""
        np = require_numpy()
        _, keys, counters = _dual_draw_shapes(np)[3]
        scratch = DrawScratch(np, (3, 5, 5))
        with pytest.raises(ValueError, match="does not fit"):
            counter_hash_array(np, keys, counters, out=scratch)
        with pytest.raises(ValueError, match="does not fit"):
            units_of_array(np, counter_hash_array(np, keys, counters), out=scratch)
        with pytest.raises(ValueError, match="does not fit"):
            units_of_counters(np, keys, counters, out=scratch)

    def test_inputs_are_never_written(self):
        np = require_numpy()
        keys = np.arange(12, dtype=np.uint64).reshape(3, 4)
        counter = np.arange(12, dtype=np.uint64).reshape(3, 4) + np.uint64(100)
        kept = keys.copy(), counter.copy()
        scratch = DrawScratch(np, (3, 4))
        counter_hash_array(np, keys, [counter, counter], out=scratch)
        assert np.array_equal(keys, kept[0]) and np.array_equal(counter, kept[1])
