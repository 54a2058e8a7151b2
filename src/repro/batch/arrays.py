"""numpy array forms of the bitmask HO-set representation.

The batch engine stores heard-of sets as ``(R, n, ceil(n/64))`` uint64 mask
arrays -- replica-major, one row of words per receiving process -- with the
word-spill layout defined by :func:`repro.rounds.bitmask.mask_to_words`
(word ``w`` holds processes ``64*w .. 64*w + 63``).  This module owns the
conversions between that layout, Python int masks, and the dense boolean
``(R, n_receiver, n_sender)`` heard-matrices the transition kernels consume.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

import numpy as np

from ..rounds.bitmask import WORD_BITS, mask_to_words, word_count, words_to_mask


def words_array_from_masks(masks: Sequence[int], n: int) -> Any:
    """Spill Python int masks into a ``(len(masks), word_count(n))`` uint64 array."""
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
    octets = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    width = word_count(n) * (WORD_BITS // 8)
    if octets.shape[-1] != width:
        padded = np.zeros((*octets.shape[:-1], width), dtype=np.uint8)
        padded[..., : octets.shape[-1]] = octets
        octets = padded
    return octets.view("<u8").astype(np.uint64, copy=False)


def popcount_words(words: Any) -> Any:
    """Per-row popcounts of a ``(..., W)`` uint64 word array (int64 ``(...,)``)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


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
