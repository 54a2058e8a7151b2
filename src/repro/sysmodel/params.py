"""Synchrony parameters of the system model (Section 4.1).

The paper normalises all timing quantities by the lower bound on process
speed ``Phi-``:

* ``phi = Phi+ / Phi-`` -- the normalised upper bound on the time between two
  consecutive steps of a synchronous process (a synchronous process takes at
  least one step in any interval of length ``phi`` and at most one step in
  any open interval of length ``1``);
* ``delta = Delta / Phi-`` -- the normalised upper bound on the transmission
  delay between two synchronous processes;
* time ``tau = t / Phi-`` -- normalised real-valued time.

All simulator times in this package are normalised times; to obtain
real-time values multiply by ``Phi-``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SynchronyParams:
    """The known synchrony bounds ``(phi, delta)``, normalised by ``Phi-``.

    Both values are "known" to the algorithms of Section 4.2, which use them
    to compute their receive-step timeouts.
    """

    phi: float
    delta: float

    def __post_init__(self) -> None:
        if self.phi < 1.0:
            raise ValueError(f"phi = Phi+/Phi- must be >= 1, got {self.phi}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    def algorithm2_timeout(self, n: int) -> int:
        """Receive-step budget of Algorithm 2: ``ceil(2*delta + (n+2)*phi)`` steps."""
        return math.ceil(2 * self.delta + (n + 2) * self.phi)

    def algorithm3_timeout(self, n: int) -> int:
        """Receive-step budget of Algorithm 3: ``ceil(2*delta + (2n+1)*phi)`` steps (``tau_0``)."""
        return math.ceil(2 * self.delta + (2 * n + 1) * self.phi)


__all__ = ["SynchronyParams"]
