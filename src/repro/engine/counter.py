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
  written entirely in ``uint64`` arithmetic (constants are ``np.uint64``:
  numpy 1.x silently promotes ``uint64 op python-int`` to float64, which
  would destroy the wraparound semantics).

Uniform doubles are ``(h >> 11) * 2^-53`` -- the top 53 bits of the hash,
exactly representable in a float64, so the scalar and array paths agree bit
for bit.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

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


class DrawScratch:
    """Caller-owned buffers of one draw shape, passed as ``out=`` below.

    A consumer that draws the same broadcast shape every round (the batch
    duals' ``(R, n, n)`` link coins) builds one of these per run, and the
    array path then writes every stage of that shape into it instead of
    allocating: :attr:`hashes` receives the hash, :attr:`shifted` is the
    xorshift temporary, :attr:`units` receives the uniforms.  A result
    returned from an ``out=`` call *is* one of these buffers and is
    overwritten by the owner's next draw, so it must be consumed (compared,
    packed) before then and never handed on.
    """

    __slots__ = ("hashes", "shifted", "units")

    def __init__(self, np: Any, shape: Tuple[int, ...]) -> None:
        self.hashes = np.empty(shape, dtype=np.uint64)
        self.shifted = np.empty(shape, dtype=np.uint64)
        self.units = np.empty(shape, dtype=np.float64)


def _mix64_array(np: Any, z: Any) -> Any:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _mix64_inplace(np: Any, z: Any, shifted: Any) -> None:
    """:func:`_mix64_array` on *z* in place; *shifted* holds each ``z >> k``."""
    np.right_shift(z, np.uint64(30), out=shifted)
    np.bitwise_xor(z, shifted, out=z)
    np.multiply(z, np.uint64(_MIX1), out=z)
    np.right_shift(z, np.uint64(27), out=shifted)
    np.bitwise_xor(z, shifted, out=z)
    np.multiply(z, np.uint64(_MIX2), out=z)
    np.right_shift(z, np.uint64(31), out=shifted)
    np.bitwise_xor(z, shifted, out=z)


def counter_hash_array(
    np: Any, keys: Any, counters: Sequence[Any], out: Optional[DrawScratch] = None
) -> Any:
    """The array form of :func:`counter_hash`, broadcasting over all inputs.

    *keys* and every entry of *counters* may be scalars or arrays of any
    mutually broadcastable shapes; the result has the broadcast shape and
    dtype uint64, bit-identical to the scalar function element-wise.

    Each counter is absorbed at the broadcast shape reached so far, so the
    leading scalar counters (tag, round) cost almost nothing and only the
    last stages run at full shape.  With *out* -- which must have exactly
    the broadcast shape, else :class:`ValueError` -- those full-shape
    stages run in its buffers and the result is ``out.hashes``; the small
    stages before them, and every stage without *out*, are plain
    expressions.  The values are the same either way.
    """
    full = None if out is None else out.hashes.shape
    # uint64 wraparound is the point; numpy warns about it on 0-d scalars.
    with np.errstate(over="ignore"):
        z = np.asarray(keys, dtype=np.uint64)
        for counter in counters:
            counter = np.asarray(counter, dtype=np.uint64)
            if full is None or np.broadcast_shapes(z.shape, counter.shape) != full:
                z = _mix64_array(np, (z + np.uint64(_PHI)) ^ counter)
                continue
            # The bump keeps z's own (smaller) shape; it is in place only
            # once the previous stage already filled the scratch.
            z = np.add(z, np.uint64(_PHI), out=z if z is out.hashes else None)
            z = np.bitwise_xor(z, counter, out=out.hashes)
            _mix64_inplace(np, z, out.shifted)
    if out is not None and z is not out.hashes:
        raise ValueError(
            f"scratch of shape {full} does not fit a draw of shape {np.shape(z)}"
        )
    if z.dtype != np.uint64:  # all-scalar inputs collapse to a 0-d value
        z = np.asarray(z, dtype=np.uint64)
    return z


def units_of_array(np: Any, hashes: Any, out: Optional[DrawScratch] = None) -> Any:
    """The array form of :func:`unit_of`: uniform float64 in ``[0, 1)``.

    With *out* (of exactly ``hashes.shape``) the result is ``out.units``.
    """
    if out is None:
        shifted = units = None
    elif out.units.shape == np.shape(hashes):
        shifted, units = out.shifted, out.units
    else:
        raise ValueError(
            f"scratch of shape {out.units.shape} does not fit "
            f"hashes of shape {np.shape(hashes)}"
        )
    shifted = np.right_shift(hashes, np.uint64(11), out=shifted)
    return np.multiply(shifted, _UNIT_SCALE, out=units)


#: the fused compiled kernel, resolved on first use: False = unresolved,
#: None = unavailable (no numba), else repro.compiled.kernels.counter_units.
_FUSED_UNITS: Any = False


def units_of_counters(
    np: Any, keys: Any, counters: Sequence[Any], out: Optional[DrawScratch] = None
) -> Any:
    """``units_of_array(counter_hash_array(keys, counters))``, fused.

    The hot form of a counter-based uniform draw: when numba is available
    the last hash stage and the unit scaling run as one nopython pass
    (:func:`repro.compiled.kernels.counter_units`);
    otherwise the two-step numpy path runs.  Either one works in the
    buffers of *out* when given and then returns ``out.units``.
    Bit-identical every way -- the top 53 hash bits scale to a float64
    exactly.

    The compiled module is imported lazily at first use (this module sits
    below :mod:`repro.compiled` in the layering DAG) and the resolution is
    cached for the life of the process, like :data:`repro._optional.NUMBA`.
    """
    global _FUSED_UNITS
    if _FUSED_UNITS is False:
        from .._optional import have_numba

        if have_numba():
            from ..compiled.kernels import counter_units

            _FUSED_UNITS = counter_units
        else:
            _FUSED_UNITS = None
    if _FUSED_UNITS is not None:
        return _FUSED_UNITS(np, keys, counters, out=out)
    return units_of_array(np, counter_hash_array(np, keys, counters, out), out)


__all__ = [
    "mix64",
    "counter_hash",
    "unit_of",
    "CounterStream",
    "DrawScratch",
    "counter_hash_array",
    "units_of_array",
    "units_of_counters",
]
