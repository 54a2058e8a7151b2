"""Counter-based random draws: hash ``(stream_key, counters...)``, no state.

The dynamic adversary families used to draw from sequential
``random.Random`` sub-streams, which forces a strict draw *order*: the
value of the k-th draw depends on the k-1 draws before it, so a vectorised
consumer must replay the exact scalar query sequence -- the reason those
families took the per-replica fallback loop in the batch backends.

A *counter-based* stream removes the order dependence: every draw is a pure
function of the stream key and a tuple of integer counters (round, process,
sender, a draw-type tag), computed with the splitmix64 finalizer.  Any
consumer -- the scalar oracle, a replica-vectorised batch dual, a prefix
re-query -- obtains bit-identical values, in any order, at any granularity.
The key is still derived with :func:`repro.engine.rng.derive_seed`, so the
``SeededRng`` contracts (named-stream isolation, ``replicate(i)`` ==
single run with ``seed + i``) carry over unchanged.

Two implementations of the same function live here and are pinned equal by
the draw-order-invariance tests:

* the pure-Python scalar path (:func:`counter_hash`, :class:`CounterStream`),
* the numpy array path (:func:`counter_hash_array`, :func:`units_of_array`),
  written entirely in ``uint64`` arithmetic (constants are ``np.uint64``,
  so no operand ever promotes to float64 and loses the wraparound).

Uniform doubles are ``(h >> 11) * 2^-53`` -- the top 53 bits of the hash,
exactly representable in a float64, so the scalar and array paths agree bit
for bit.  A Bernoulli coin ``unit_of(h) < p`` never needs the double: it is
the integer comparison ``h < coin_threshold(p)`` (:func:`coin_threshold`),
which is how the array consumers draw their link coins.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1

#: golden-ratio increment of the splitmix64 state walk.
_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: scale of the 53-bit uniform: ``2 ** -53``, exact in binary floating point.
_UNIT_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective scramble of one 64-bit word."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def counter_hash(key: int, *counters: int) -> int:
    """A 64-bit hash of ``(key, counters...)``: one draw, order-independent.

    Each counter is absorbed with a golden-ratio state bump followed by the
    splitmix64 scramble, so draws with a different counter tuple (including
    a different arity) are decorrelated.  Callers distinguish draw *types*
    by a leading tag counter, which keeps tuples of different types from
    being prefix extensions of one another.
    """
    z = key & _MASK64
    for counter in counters:
        z = (z + _PHI) & _MASK64
        z = mix64(z ^ (counter & _MASK64))
    return z


def unit_of(h: int) -> float:
    """Map a 64-bit hash to a uniform double in ``[0, 1)`` (top 53 bits)."""
    return (h >> 11) * _UNIT_SCALE


def coin_threshold(probability: float) -> int:
    """The integer ``T`` with ``unit_of(h) < probability  <=>  h < T``.

    Exact for every 64-bit ``h`` -- the coin is the hash, no shift, no
    float multiply.  For ``0 < p < 1`` let ``C = ceil(p * 2**53)``:
    ``p * 2**53`` only moves the exponent, so it is an exact float, and
    ``math.ceil`` of it is an exact int.  ``unit_of(h) = (h >> 11) * 2**-53``
    is exact too (a 53-bit integer times a power of two), hence
    ``unit_of(h) < p  <=>  (h >> 11) < p * 2**53  <=>  (h >> 11) < C``
    (the left side is an integer, so comparing against a real and against
    its ceiling agree) ``<=>  h < C << 11`` (the dropped low 11 bits are
    below ``1 << 11``).  So ``T = C << 11``.

    ``p <= 0`` gives 0 (no hash is below it: never) and ``p >= 1`` gives
    ``2**64`` (every hash is: always).  That last value does not fit a
    ``uint64``, which is why array consumers compare through
    :func:`coins_below` / :func:`coins_not_below` instead of ``np.less``.
    NaN -- for which the float comparison is False either way round, so no
    single threshold reproduces both ``<`` and ``>=`` -- raises
    :class:`ValueError`.
    """
    if probability != probability:
        raise ValueError("a coin probability must not be NaN")
    if probability <= 0.0:
        return 0
    if probability >= 1.0:
        return 1 << 64
    return math.ceil(probability * 2.0 ** 53) << 11


class CounterStream:
    """One named stream of counter-addressed draws under a fixed 64-bit key.

    The scalar-side face of counter-based randomness: oracles call
    :meth:`unit` / :meth:`mod` with their counter tuples, batch duals reuse
    :attr:`key` with the array implementation, and both obtain the same
    values because there is no sequence position to disagree on.
    """

    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key & _MASK64

    def hash(self, *counters: int) -> int:
        """The raw 64-bit draw at *counters*."""
        return counter_hash(self.key, *counters)

    def unit(self, *counters: int) -> float:
        """A uniform double in ``[0, 1)`` at *counters*."""
        return unit_of(counter_hash(self.key, *counters))

    def below(self, probability: float, *counters: int) -> bool:
        """A Bernoulli(*probability*) draw at *counters*."""
        return unit_of(counter_hash(self.key, *counters)) < probability

    def mod(self, modulus: int, *counters: int) -> int:
        """A draw in ``range(modulus)`` at *counters* (negligible modulo bias)."""
        return counter_hash(self.key, *counters) % modulus

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CounterStream(key=0x{self.key:016x})"


# --------------------------------------------------------------------------- #
# the numpy dual: identical values, computed array-wide
# --------------------------------------------------------------------------- #


#: elements per block of a tiled full-shape stage (see
#: :func:`counter_hash_array`): 32 Ki ``uint64`` -- a 256 KiB hash tile plus a
#: 256 KiB shift tile, which stay cache-resident across the nine passes of a
#: stage.  16 Ki and 64 Ki measured the same within noise.
_BLOCK_ELEMS = 1 << 15


class DrawScratch:
    """Caller-owned buffers of one draw shape, passed as ``out=`` below.

    A consumer that draws the same broadcast shape every round (the batch
    duals' ``(R, n, n)`` link coins) builds one of these per run, and the
    array path then writes every stage of that shape into it instead of
    allocating: :attr:`hashes` receives the hash, :attr:`shifted` is the
    xorshift temporary -- of one *block* only, the leading rows of the draw
    shape that hold about :data:`_BLOCK_ELEMS` elements (all of them when
    the draw is smaller), because a full-shape stage runs block by block.
    A result returned from an ``out=`` call *is* :attr:`hashes` and is
    overwritten by the owner's next draw, so it must be consumed (compared,
    packed) before then and never handed on.
    """

    __slots__ = ("hashes", "shifted")

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self.hashes = np.empty(shape, dtype=np.uint64)
        block = shape
        if shape:
            per_row = max(1, math.prod(shape[1:]))
            block = (min(shape[0], max(1, _BLOCK_ELEMS // per_row)),) + shape[1:]
        self.shifted = np.empty(block, dtype=np.uint64)

    def leading(self, rows: int) -> "DrawScratch":
        """The scratch of a draw over the first *rows* rows only (views)."""
        view = DrawScratch.__new__(DrawScratch)
        view.hashes = self.hashes[:rows]
        view.shifted = self.shifted[:rows]
        return view


def _mix64_array(z: Any) -> Any:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _mix64_inplace(z: Any, shifted: Any) -> None:
    """:func:`_mix64_array` on *z* in place; *shifted* holds each ``z >> k``."""
    np.right_shift(z, np.uint64(30), out=shifted)
    np.bitwise_xor(z, shifted, out=z)
    np.multiply(z, np.uint64(_MIX1), out=z)
    np.right_shift(z, np.uint64(27), out=shifted)
    np.bitwise_xor(z, shifted, out=z)
    np.multiply(z, np.uint64(_MIX2), out=z)
    np.right_shift(z, np.uint64(31), out=shifted)
    np.bitwise_xor(z, shifted, out=z)


#: the fused compiled last stage, resolved on first use: False = unresolved,
#: None = unavailable (no numba), else repro.compiled.kernels.counter_hash_rows.
_FUSED_HASH: Any = False


def _fused_hash() -> Any:
    """:func:`repro.compiled.kernels.counter_hash_rows`, or None without numba.

    The compiled module is imported lazily at first use (this module sits
    below :mod:`repro.compiled` in the layering DAG) and the resolution is
    cached for the life of the process, like :data:`repro._optional.NUMBA`.
    """
    global _FUSED_HASH
    if _FUSED_HASH is False:
        from .._optional import have_numba

        if have_numba():
            from ..compiled.kernels import counter_hash_rows

            _FUSED_HASH = counter_hash_rows
        else:
            _FUSED_HASH = None
    return _FUSED_HASH


def _absorb_full_shape(z: Any, counter: Any, out: DrawScratch) -> None:
    """One stage at the scratch's shape: ``out.hashes = mix64((z + PHI) ^ counter)``.

    Runs block by block along axis 0 -- the xor into one block of
    ``out.hashes``, then the eight mix passes through the block-shaped
    ``out.shifted`` -- so both buffers of a block stay in cache for all nine
    passes instead of streaming the whole draw nine times.  A draw of at
    most one block is a single step.  *z* is only written when it is
    ``out.hashes`` itself (the previous stage was full-shape too).

    When numba is present and the stage has a link draw's shape -- *z*
    constant along the last axis, *counter* varying only along it -- the
    whole stage is one fused nopython pass instead.
    """
    hashes, shifted = out.hashes, out.shifted
    full = hashes.shape
    fused = _fused_hash()
    if (
        fused is not None
        and z is not hashes
        and z.shape == full[:-1] + (1,)
        and counter.shape[-1:] == full[-1:]
        and counter.size == full[-1]
    ):
        fused(z.reshape(-1), counter.reshape(-1), hashes.reshape(-1, full[-1]))
        return
    # The bump keeps z's own (smaller) shape.
    z = np.add(z, np.uint64(_PHI), out=z if z is hashes else None)
    if not full or shifted.shape[0] >= full[0]:
        np.bitwise_xor(z, counter, out=hashes)
        _mix64_inplace(hashes, shifted)
        return
    # Copy, then xor in place: a ufunc over two broadcast operands stages
    # each through an iterator buffer; the copy does not.
    prefix = None if z is hashes else np.broadcast_to(z, full)
    counter = np.broadcast_to(counter, full)
    step = shifted.shape[0]
    for lo in range(0, full[0], step):
        block = hashes[lo : lo + step]
        if prefix is not None:
            np.copyto(block, prefix[lo : lo + step])
        np.bitwise_xor(block, counter[lo : lo + step], out=block)
        _mix64_inplace(block, shifted[: len(block)])


def counter_hash_array(
    keys: Any, counters: Sequence[Any], out: Optional[DrawScratch] = None
) -> Any:
    """The array form of :func:`counter_hash`, broadcasting over all inputs.

    *keys* and every entry of *counters* may be scalars or arrays of any
    mutually broadcastable shapes; the result has the broadcast shape and
    dtype uint64, bit-identical to the scalar function element-wise.

    Each counter is absorbed at the broadcast shape reached so far, so the
    leading scalar counters (tag, round) cost almost nothing and only the
    last stages run at full shape.  With *out* -- which must have exactly
    the broadcast shape, else :class:`ValueError` -- those full-shape
    stages run in its buffers (:func:`_absorb_full_shape`) and the result
    is ``out.hashes``; the small stages before them, and every stage
    without *out*, are plain expressions.  The values are the same either
    way.
    """
    full = None if out is None else out.hashes.shape
    # uint64 wraparound is the point; numpy warns about it on 0-d scalars.
    with np.errstate(over="ignore"):
        z = np.asarray(keys, dtype=np.uint64)
        for counter in counters:
            counter = np.asarray(counter, dtype=np.uint64)
            if full is None or np.broadcast_shapes(z.shape, counter.shape) != full:
                z = _mix64_array((z + np.uint64(_PHI)) ^ counter)
            else:
                _absorb_full_shape(z, counter, out)
                z = out.hashes
    if out is not None and z is not out.hashes:
        raise ValueError(
            f"scratch of shape {full} does not fit a draw of shape {np.shape(z)}"
        )
    if z.dtype != np.uint64:  # all-scalar inputs collapse to a 0-d value
        z = np.asarray(z, dtype=np.uint64)
    return z


def coins_below(hashes: Any, threshold: int, out: Optional[Any] = None) -> Any:
    """The array coin ``hashes < threshold`` for a :func:`coin_threshold`.

    Equal element-wise to ``units_of_array(hashes) < p`` with
    ``threshold = coin_threshold(p)``, without the unit array.  The one
    threshold no ``uint64`` holds, ``2**64`` ("always"), is compared as
    ``hashes <= 2**64 - 1``.
    """
    if threshold > _MASK64:
        return np.less_equal(hashes, np.uint64(_MASK64), out=out)
    return np.less(hashes, np.uint64(threshold), out=out)


def coins_not_below(hashes: Any, threshold: int, out: Optional[Any] = None) -> Any:
    """The complement of :func:`coins_below`: ``units_of_array(hashes) >= p``."""
    if threshold > _MASK64:
        return np.greater(hashes, np.uint64(_MASK64), out=out)
    return np.greater_equal(hashes, np.uint64(threshold), out=out)


def units_of_array(hashes: Any) -> Any:
    """The array form of :func:`unit_of`: uniform float64 in ``[0, 1)``."""
    return (hashes >> np.uint64(11)) * _UNIT_SCALE


def units_of_counters(keys: Any, counters: Sequence[Any]) -> Any:
    """``units_of_array(counter_hash_array(keys, counters))``.

    The uniform draw of the consumers that need the double itself or draw
    too little for a scratch to matter (the duals' ``(R, n)`` churn and
    flakiness coins); the ``(R, n, n)`` link coins compare the hash against
    a :func:`coin_threshold` instead.
    """
    return units_of_array(counter_hash_array(keys, counters))


__all__ = [
    "mix64",
    "counter_hash",
    "unit_of",
    "coin_threshold",
    "CounterStream",
    "DrawScratch",
    "counter_hash_array",
    "coins_below",
    "coins_not_below",
    "units_of_array",
    "units_of_counters",
]
