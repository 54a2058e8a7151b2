"""repro.engine: the library's randomness.

Every random draw of a simulation comes from here, so that a run is a pure
function of its seed:

* :class:`SeededRng` -- named, mutually isolated sequential sub-streams
  (the step-level simulator's ``steps`` and ``network`` streams, the
  oracles' draws, the failure detectors' noise);
* :class:`CounterStream` / :func:`counter_hash` / :func:`unit_of` --
  stateless counter-based draws, bit-identical between the scalar oracles
  and their array duals.
"""

from .counter import CounterStream, counter_hash, unit_of
from .rng import SeededRng, derive_seed

__all__ = [
    "SeededRng",
    "derive_seed",
    "CounterStream",
    "counter_hash",
    "unit_of",
]
