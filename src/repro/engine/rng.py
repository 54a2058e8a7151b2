"""Seeded randomness with named, mutually isolated sub-streams.

A simulation draws random numbers for several unrelated concerns: channel
loss, channel delay, bad-period step gaps, fault timing.  Feeding them all
from one ``random.Random`` couples them -- changing the channel noise model
shifts every later draw and silently perturbs fault timing, which makes
A/B experiments incomparable and replay debugging miserable.

:class:`SeededRng` derives one independent ``random.Random`` per *named*
stream from a single master seed, so that

* the same ``(seed, name)`` pair always yields the same stream
  (deterministic replay), and
* draws on one stream never affect any other stream (isolation).

Stream seeds are derived with SHA-256 over ``"{seed}:{name}"``, so they are
stable across processes and Python versions (no reliance on ``hash()``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Tuple

from .counter import CounterStream


def derive_seed(seed: int, name: str) -> int:
    """A stable 64-bit sub-seed for stream *name* under master *seed*."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """A family of named, independent random streams under one master seed."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The ``random.Random`` of sub-stream *name* (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def counter_stream(self, name: str) -> CounterStream:
        """The counter-based stream *name*: stateless, order-independent draws.

        Unlike :meth:`stream`, the returned :class:`~repro.engine.counter.
        CounterStream` carries no cursor -- every draw is a pure function of
        the derived key and the caller's counter tuple, so scalar and
        vectorised consumers of the same ``(seed, name)`` pair are
        bit-identical by construction.  The key derivation is the same
        :func:`derive_seed` the sequential streams use, so isolation between
        names and the :meth:`replicate` contract are preserved.
        """
        return CounterStream(derive_seed(self.seed, name))

    def spawn(self, name: str) -> "SeededRng":
        """A derived :class:`SeededRng` whose streams are independent of this one."""
        return SeededRng(derive_seed(self.seed, name))

    def replicate(self, index: int) -> "SeededRng":
        """The rng of batch replica *index*: exactly the single run seeded ``seed + index``.

        Sweep grids enumerate seeds as consecutive integers, so "replica
        ``i`` of a batch rooted at ``seed``" and "the single run with seed
        ``seed + i``" must be the same experiment.  ``replicate`` therefore
        deliberately re-roots the whole stream family at ``seed + index``
        rather than deriving a hashed sub-seed: every named stream of the
        returned rng is bit-identical to the stream the corresponding single
        run would draw from, which is what lets the batch backends promise
        per-seed bit-identical replicas.
        """
        if index < 0:
            raise ValueError(f"replica index must be non-negative, got {index}")
        return SeededRng(self.seed + index)

    def streams(self) -> Iterator[Tuple[str, random.Random]]:
        """The streams created so far (for state snapshots in tests)."""
        return iter(self._streams.items())


__all__ = ["SeededRng", "derive_seed"]
