"""Closed-form bounds of the paper as executable formulas.

All formulas are stated in *normalised* time (multiples of ``Phi-``), with
``phi = Phi+/Phi-`` and ``delta = Delta/Phi-`` as in Section 4.1, and are the
exact expressions of:

* Theorem 3   -- minimal length of a (non-initial) "pi0-down" good period to
  achieve ``P_su(pi0, rho0, rho0+x-1)`` with Algorithm 2;
* Corollary 4 -- minimal "pi0-down" good period(s) for ``P_2otr`` (one
  period) and ``P_1/1otr`` (two periods) with Algorithm 2;
* Theorem 5   -- minimal length of an *initial* "pi0-down" good period for
  ``x`` space-uniform rounds with Algorithm 2;
* Theorem 6   -- minimal length of a (non-initial) "pi0-arbitrary" good
  period to achieve ``P_k(pi0, rho0, rho0+x-1)`` with Algorithm 3;
* Theorem 7   -- minimal length of an *initial* "pi0-arbitrary" good period
  for ``P_k(pi0, 1, x)`` with Algorithm 3;
* Section 4.2.2(c) -- minimal "pi0-arbitrary" good period for ``P_2otr``
  through the Algorithm 4 translation (``2f+3`` rounds).

The paper's main text and appendix differ by one additive constant inside
the parenthesis of Corollary 4 (``+3`` in the main text, ``+2`` in
Proposition B.1); both variants are provided, the main-text one being the
default used by the benchmarks (it is the larger, i.e. the safe one).

The benchmark harness compares these bounds against good-period lengths
*measured* in the step-level simulator: measured values must never exceed
the bound, and must scale with the same shape (linear in ``x``, ``n``,
``delta``, ``f``).
"""

from __future__ import annotations

from dataclasses import dataclass


def _check(n: int, phi: float, delta: float) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if phi < 1.0:
        raise ValueError(f"phi must be >= 1, got {phi}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")


# --------------------------------------------------------------------------- #
# Algorithm 2 ("pi0-down" good periods)
# --------------------------------------------------------------------------- #


def theorem3_good_period_length(x: int, n: int, phi: float, delta: float) -> float:
    """Theorem 3: minimal "pi0-down" good period for ``P_su(pi0, rho0, rho0+x-1)``.

    ``(x+1)(2*delta + (n+2)*phi + 1)*phi + delta + phi``.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    _check(n, phi, delta)
    return (x + 1) * (2 * delta + (n + 2) * phi + 1) * phi + delta + phi


def corollary4_p2otr_length(n: int, phi: float, delta: float, main_text: bool = True) -> float:
    """Corollary 4: one "pi0-down" good period sufficient for ``P_2otr(pi0)``.

    Main text: ``(6*delta + 3*n*phi + 6*phi + 3)*phi + delta + phi`` (equals
    Theorem 3 with ``x = 2``); Proposition B.1 states ``+2`` instead of
    ``+3`` in the inner parenthesis.
    """
    _check(n, phi, delta)
    constant = 3 if main_text else 2
    return (6 * delta + 3 * n * phi + 6 * phi + constant) * phi + delta + phi


def corollary4_p11otr_length(n: int, phi: float, delta: float, main_text: bool = True) -> float:
    """Corollary 4: each of the two "pi0-down" good periods sufficient for ``P_1/1otr(pi0)``.

    Main text: ``(4*delta + 2*n*phi + 4*phi + 2)*phi + delta + phi`` (equals
    Theorem 3 with ``x = 1``); Proposition B.1 states ``+1`` instead of
    ``+2``.
    """
    _check(n, phi, delta)
    constant = 2 if main_text else 1
    return (4 * delta + 2 * n * phi + 4 * phi + constant) * phi + delta + phi


def theorem5_initial_good_period_length(x: int, n: int, phi: float, delta: float) -> float:
    """Theorem 5: minimal *initial* "pi0-down" good period for ``P_su(pi0, 1, x)``.

    ``x * (2*delta + (n+2)*phi + 1) * phi``.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    _check(n, phi, delta)
    return x * (2 * delta + (n + 2) * phi + 1) * phi


def noninitial_to_initial_ratio(x: int, n: int, phi: float, delta: float) -> float:
    """Ratio Theorem 3 / Theorem 5 for the same ``x``.

    The paper points out this ratio is approximately ``3/2`` for the relevant
    value ``x = 2``.
    """
    return theorem3_good_period_length(x, n, phi, delta) / theorem5_initial_good_period_length(
        x, n, phi, delta
    )


# --------------------------------------------------------------------------- #
# Algorithm 3 ("pi0-arbitrary" good periods)
# --------------------------------------------------------------------------- #


def algorithm3_timeout(n: int, phi: float, delta: float) -> float:
    """The timeout ``tau_0 = 2*delta + (2n+1)*phi`` of Algorithm 3 (in receive steps)."""
    _check(n, phi, delta)
    return 2 * delta + (2 * n + 1) * phi


def theorem6_good_period_length(x: int, n: int, phi: float, delta: float) -> float:
    """Theorem 6: minimal "pi0-arbitrary" good period for ``P_k(pi0, rho0, rho0+x-1)``.

    ``(x+2) * [tau_0*phi + delta + n*phi + 2*phi] + tau_0*phi`` with
    ``tau_0 = 2*delta + (2n+1)*phi``.  Requires ``f < n/2``.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    tau0 = algorithm3_timeout(n, phi, delta)
    return (x + 2) * (tau0 * phi + delta + n * phi + 2 * phi) + tau0 * phi


def theorem7_initial_good_period_length(x: int, n: int, phi: float, delta: float) -> float:
    """Theorem 7: minimal *initial* "pi0-arbitrary" good period for ``P_k(pi0, 1, x)``.

    ``(x-1) * [tau_0*phi + delta + n*phi + 2*phi] + tau_0*phi + phi``.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    tau0 = algorithm3_timeout(n, phi, delta)
    return (x - 1) * (tau0 * phi + delta + n * phi + 2 * phi) + tau0 * phi + phi


def arbitrary_p2otr_rounds(f: int) -> int:
    """Number of Algorithm 3 rounds needed for ``P_2otr`` through the translation: ``2f+3``.

    Two macro-rounds of ``f+1`` rounds (the worst case starts just after the
    beginning of a macro-round) plus one extra kernel round.
    """
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")
    return 2 * f + 3


def arbitrary_p2otr_length(f: int, n: int, phi: float, delta: float) -> float:
    """Section 4.2.2(c): minimal "pi0-arbitrary" good period for ``P_2otr`` via Algorithm 4.

    ``(2f+5) * [tau_0*phi + delta + n*phi + 2*phi] + tau_0*phi`` -- i.e.
    Theorem 6 instantiated with ``x = 2f+3``.
    """
    if f < 0:
        raise ValueError(f"f must be non-negative, got {f}")
    if 2 * f >= n:
        raise ValueError(f"Algorithm 3/4 require f < n/2, got f={f}, n={n}")
    return theorem6_good_period_length(arbitrary_p2otr_rounds(f), n, phi, delta)


# --------------------------------------------------------------------------- #
# Aggregated views used by benchmark reports
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BoundSummary:
    """A named analytic bound, convenient for tabulated benchmark output."""

    name: str
    x: int
    n: int
    phi: float
    delta: float
    value: float


def summarize_down_bounds(x: int, n: int, phi: float, delta: float) -> list[BoundSummary]:
    """All Algorithm 2 bounds for one parameter point (Theorems 3, 5, Corollary 4)."""
    return [
        BoundSummary("theorem3", x, n, phi, delta, theorem3_good_period_length(x, n, phi, delta)),
        BoundSummary("theorem5", x, n, phi, delta, theorem5_initial_good_period_length(x, n, phi, delta)),
        BoundSummary("corollary4_p2otr", 2, n, phi, delta, corollary4_p2otr_length(n, phi, delta)),
        BoundSummary("corollary4_p11otr", 1, n, phi, delta, corollary4_p11otr_length(n, phi, delta)),
    ]


def summarize_arbitrary_bounds(x: int, n: int, f: int, phi: float, delta: float) -> list[BoundSummary]:
    """All Algorithm 3/4 bounds for one parameter point (Theorems 6, 7, Section 4.2.2c)."""
    return [
        BoundSummary("theorem6", x, n, phi, delta, theorem6_good_period_length(x, n, phi, delta)),
        BoundSummary("theorem7", x, n, phi, delta, theorem7_initial_good_period_length(x, n, phi, delta)),
        BoundSummary(
            "arbitrary_p2otr",
            arbitrary_p2otr_rounds(f),
            n,
            phi,
            delta,
            arbitrary_p2otr_length(f, n, phi, delta),
        ),
    ]


__all__ = [
    "theorem3_good_period_length",
    "corollary4_p2otr_length",
    "corollary4_p11otr_length",
    "theorem5_initial_good_period_length",
    "noninitial_to_initial_ratio",
    "algorithm3_timeout",
    "theorem6_good_period_length",
    "theorem7_initial_good_period_length",
    "arbitrary_p2otr_rounds",
    "arbitrary_p2otr_length",
    "BoundSummary",
    "summarize_down_bounds",
    "summarize_arbitrary_bounds",
]
