"""Integer bitmasks over process sets: the hot-path representation of HO sets.

A heard-of set over processes ``0 .. n-1`` is represented as an ``int`` in
which bit ``p`` is set iff process ``p`` is a member.  Set algebra becomes
word-wide integer arithmetic (``&``, ``|``, ``==``), membership a shift, and
cardinality a popcount -- no per-round ``frozenset`` churn in large-``n``
sweeps.  ``frozenset`` remains the representation at API boundaries
(:meth:`repro.core.types.HOCollection.ho`, record ``ho_set`` properties);
these helpers convert between the two.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

try:  # Python >= 3.10
    _POPCOUNT = int.bit_count

    def bit_count(mask: int) -> int:
        """The number of set bits in *mask* (the cardinality of the set)."""
        return _POPCOUNT(mask)

except AttributeError:  # pragma: no cover - Python 3.9 fallback

    def bit_count(mask: int) -> int:
        """The number of set bits in *mask* (the cardinality of the set)."""
        return bin(mask).count("1")


def full_mask(n: int) -> int:
    """The mask of the full process set ``Pi = {0, ..., n-1}``."""
    return (1 << n) - 1


def mask_of(processes: Iterable[int]) -> int:
    """The mask of an iterable of process ids (ids must be non-negative)."""
    mask = 0
    for p in processes:
        mask |= 1 << p
    return mask


def mask_to_frozenset(mask: int) -> FrozenSet[int]:
    """The ``frozenset`` of process ids encoded by *mask*."""
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of *mask*, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --------------------------------------------------------------------------- #
# uint64 word spill: the boundary between Python int masks and array backends
# --------------------------------------------------------------------------- #

#: Bits per mask word in the array representation used by the batch backends
#: (:mod:`repro.batch`): heard-of sets travel as ``ceil(n / 64)`` uint64 words
#: per process, so word ``w`` holds processes ``64*w .. 64*w + 63``.
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1


def word_count(n: int) -> int:
    """How many uint64 words an *n*-process mask spills into (``ceil(n/64)``)."""
    if n <= 0:
        raise ValueError(f"number of processes must be positive, got {n}")
    return (n + WORD_BITS - 1) // WORD_BITS


def mask_to_words(mask: int, n: int) -> Tuple[int, ...]:
    """Spill an arbitrary-width Python int mask into ``word_count(n)`` uint64 words.

    Word ``w`` holds bits ``64*w .. 64*w + 63`` of *mask* (little-endian word
    order), matching the ``(R, ceil(n/64))`` layout of the batch mask arrays.
    Bits at or above *n* must be clear -- the batch boundary never smuggles
    out-of-range processes.
    """
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    if mask >> n:
        raise ValueError(f"mask {bin(mask)} has bits set at or above n={n}")
    return tuple(
        (mask >> (WORD_BITS * w)) & _WORD_MASK for w in range(word_count(n))
    )


def words_to_mask(words: Iterable[int]) -> int:
    """Reassemble a Python int mask from its little-endian uint64 word spill."""
    mask = 0
    for w, word in enumerate(words):
        if not 0 <= word <= _WORD_MASK:
            raise ValueError(f"word {w} out of uint64 range: {word}")
        mask |= int(word) << (WORD_BITS * w)
    return mask


__all__ = [
    "bit_count",
    "full_mask",
    "mask_of",
    "mask_to_frozenset",
    "iter_bits",
    "WORD_BITS",
    "word_count",
    "mask_to_words",
    "words_to_mask",
]
