"""Unit tests for the bitmask HO-set representation."""

from __future__ import annotations

import pytest

from repro.rounds.bitmask import (
    WORD_BITS,
    bit_count,
    full_mask,
    iter_bits,
    mask_of,
    mask_to_frozenset,
    mask_to_words,
    word_count,
    words_to_mask,
)

#: The word-boundary sizes the uint64 spill must handle exactly: one bit
#: below, at, and above the 64-bit word edge, plus a two-word full size.
BOUNDARY_SIZES = (63, 64, 65, 128)


class TestMaskHelpers:
    def test_full_mask(self):
        assert full_mask(1) == 0b1
        assert full_mask(4) == 0b1111
        assert full_mask(130) == (1 << 130) - 1

    def test_mask_of_roundtrips_with_frozenset(self):
        for members in (set(), {0}, {3, 1, 2}, {0, 63, 64, 129}):
            mask = mask_of(members)
            assert mask_to_frozenset(mask) == frozenset(members)

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011)) == [0, 1, 3]
        assert list(iter_bits(1 << 100)) == [100]

    def test_bit_count(self):
        assert bit_count(0) == 0
        assert bit_count(0b1011) == 3
        assert bit_count(full_mask(200)) == 200

    def test_set_algebra_matches_frozenset_algebra(self):
        a, b = {0, 2, 5}, {2, 3, 5, 7}
        assert mask_to_frozenset(mask_of(a) & mask_of(b)) == frozenset(a) & frozenset(b)
        assert mask_to_frozenset(mask_of(a) | mask_of(b)) == frozenset(a) | frozenset(b)


class TestWordBoundaries:
    """Mask helpers and the uint64 word spill at n = 63, 64, 65, 128."""

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_full_mask_round_trips(self, n):
        mask = full_mask(n)
        assert bit_count(mask) == n
        assert list(iter_bits(mask)) == list(range(n))
        assert mask_to_frozenset(mask) == frozenset(range(n))
        assert mask_of(range(n)) == mask

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_edge_bits_round_trip(self, n):
        # The highest bit, the bits hugging the word edge, and a straddling set.
        interesting = {0, n - 1} | ({63, 64} & set(range(n)))
        for members in ({n - 1}, interesting):
            mask = mask_of(members)
            assert bit_count(mask) == len(members)
            assert mask_to_frozenset(mask) == frozenset(members)
            assert all((mask >> p) & 1 for p in members)
            assert mask & ~full_mask(n) == 0

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_word_count(self, n):
        assert word_count(n) == (n + WORD_BITS - 1) // WORD_BITS
        assert word_count(n) == (2 if n > 64 else 1)

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_word_spill_round_trips(self, n):
        for members in (set(), {0}, {n - 1}, {0, n - 1}, set(range(n)),
                        {p for p in range(n) if p % 7 == 3}):
            mask = mask_of(members)
            words = mask_to_words(mask, n)
            assert len(words) == word_count(n)
            assert all(0 <= word < (1 << WORD_BITS) for word in words)
            assert words_to_mask(words) == mask

    def test_word_spill_layout_is_little_endian(self):
        # Bit 64 is bit 0 of word 1 -- the layout the batch arrays rely on.
        assert mask_to_words(1 << 64, 65) == (0, 1)
        assert mask_to_words((1 << 64) | 1, 65) == (1, 1)
        assert mask_to_words(full_mask(65), 65) == ((1 << 64) - 1, 1)

    def test_word_spill_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            mask_to_words(1 << 64, 64)
        with pytest.raises(ValueError):
            mask_to_words(-1, 4)
        with pytest.raises(ValueError):
            words_to_mask([1 << 64])

    def test_full_mask_spill_per_boundary(self):
        assert mask_to_words(full_mask(63), 63) == ((1 << 63) - 1,)
        assert mask_to_words(full_mask(64), 64) == ((1 << 64) - 1,)
        assert mask_to_words(full_mask(128), 128) == ((1 << 64) - 1, (1 << 64) - 1)
