"""numpy array forms of the bitmask HO-set representation.

The batch engine stores heard-of sets as ``(R, n, ceil(n/64))`` uint64 mask
arrays -- replica-major, one row of words per receiving process -- with the
word-spill layout defined by :func:`repro.rounds.bitmask.mask_to_words`
(word ``w`` holds processes ``64*w .. 64*w + 63``).  This module owns the
conversions between that layout, Python int masks, and the dense boolean
``(R, n_receiver, n_sender)`` heard-matrices the transition kernels consume.

Everything here requires numpy; the callers (:mod:`repro.batch.backends`)
never reach these helpers on the pure-Python fallback path.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

from .._optional import require_numpy
from ..rounds.bitmask import WORD_BITS, mask_to_words, word_count, words_to_mask


def words_array_from_masks(masks: Sequence[int], n: int) -> Any:
    """Spill Python int masks into a ``(len(masks), word_count(n))`` uint64 array."""
    np = require_numpy()
    return np.array([mask_to_words(mask, n) for mask in masks], dtype=np.uint64)


def mask_from_words_row(row: Iterable[int]) -> int:
    """Reassemble one word row into a Python int mask (the boundary back out)."""
    return words_to_mask(int(word) for word in row)


def unpack_words(words: Any, n: int, out: Any = None) -> Any:
    """Unpack a ``(..., W)`` uint64 word array into a ``(..., n)`` bool array.

    Bit ``q`` of the mask becomes column ``q``; the padding bits above ``n``
    in the last word are dropped.  The words are read through a ``<u8`` view
    so byte ``b`` of a word holds bits ``8b .. 8b + 7`` on any host -- the
    layout of :func:`repro.rounds.bitmask.mask_to_words`.  Strided and
    read-only inputs (the oracles' broadcast all-heard rows) are fine.  The
    round loops call this once per round and pass their own ``(..., n)`` bool
    buffer as *out*.
    """
    np = require_numpy()
    octets = words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=n, bitorder="little").view(bool)
    if out is None:
        return bits
    np.copyto(out, bits)
    return out


def pack_bools(bits: Any, n: int) -> Any:
    """Pack a ``(..., n)`` bool array into its ``(..., W)`` uint64 word spill.

    The inverse of :func:`unpack_words`, through the same ``<u8`` byte
    layout.  The result is always a fresh array, never a view of *bits*.
    """
    np = require_numpy()
    octets = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    width = word_count(n) * (WORD_BITS // 8)
    if octets.shape[-1] != width:
        padded = np.zeros((*octets.shape[:-1], width), dtype=np.uint8)
        padded[..., : octets.shape[-1]] = octets
        octets = padded
    return octets.view("<u8").astype(np.uint64, copy=False)


def popcount_words(words: Any) -> Any:
    """Per-row popcounts of a ``(..., W)`` uint64 word array (int64 ``(...,)``).

    numpy >= 2 has a native ``bitwise_count``; older numpys get the
    SWAR popcount over the same words.
    """
    np = require_numpy()
    counter = getattr(np, "bitwise_count", None)
    if counter is not None:
        return counter(words).sum(axis=-1, dtype=np.int64)
    # SWAR popcount, 64-bit lanes (for numpy < 2).
    x = words.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x -= (x >> np.uint64(1)) & m1
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    x = (x * h01) >> np.uint64(56)
    return x.sum(axis=-1, dtype=np.int64)


def int_masks_from_words(words: Any) -> List[int]:
    """Convert a ``(n, W)`` word array into a list of Python int masks."""
    return [mask_from_words_row(row) for row in words]


__all__ = [
    "words_array_from_masks",
    "mask_from_words_row",
    "unpack_words",
    "pack_bools",
    "popcount_words",
    "int_masks_from_words",
]
