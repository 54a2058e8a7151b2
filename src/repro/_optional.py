"""Optional third-party dependencies, resolved once per process.

Two optional dependencies exist today, both shipped via extras:

* **numpy** (the ``fast`` extra): the batch execution backend
  (:mod:`repro.batch`) vectorises replica batches with it, and every
  consumer degrades to a pure-Python path when it is absent.
* **numba** (the ``compiled`` extra, also pulled in by ``fast``): the
  compiled kernel tier (:mod:`repro.compiled`) JITs the batched transition
  kernels and the splitmix64 counter path; without it every compiled cell
  degrades to the numpy batch path (and further to scalar) with identical
  results.

All users go through :data:`NUMPY` / :func:`have_numpy` and
:data:`NUMBA` / :func:`have_numba` so there is exactly one import-guard
per dependency in the code base.

Set ``REPRO_DISABLE_NUMPY=1`` or ``REPRO_DISABLE_NUMBA=1`` in the
environment to pretend the dependency is not installed -- CI uses these
(and genuinely dependency-free matrix legs) to keep the fallback paths
honest.
"""

from __future__ import annotations

import os
from typing import Any, Optional


def _load_numpy() -> Optional[Any]:
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


#: The numpy module, or None when unavailable (not installed, or disabled
#: via ``REPRO_DISABLE_NUMPY``).  Resolved at import time: flipping the
#: environment variable mid-process does not re-resolve it.
NUMPY = _load_numpy()


def _load_numba() -> Optional[Any]:
    # The compiled tier operates on numpy arrays; numba without numpy is
    # not a configuration the kernels can run under.
    if os.environ.get("REPRO_DISABLE_NUMBA") or NUMPY is None:
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba


#: The numba module, or None when unavailable (not installed, disabled via
#: ``REPRO_DISABLE_NUMBA``, or numpy itself is unavailable).  Resolved at
#: import time, like :data:`NUMPY`.
NUMBA = _load_numba()


def have_numpy() -> bool:
    """Whether the vectorised (numpy) paths are available in this process."""
    return NUMPY is not None


def require_numpy() -> Any:
    """Return numpy or raise a pointed error naming the ``fast`` extra."""
    if NUMPY is None:
        raise RuntimeError(
            "this code path needs numpy; install the 'fast' extra "
            "(pip install 'repro-hutle-schiper-2007[fast]') or use the "
            "pure-Python scalar backend"
        )
    return NUMPY


def have_numba() -> bool:
    """Whether the compiled (numba) kernel tier is available in this process."""
    return NUMBA is not None


__all__ = [
    "NUMBA",
    "NUMPY",
    "have_numba",
    "have_numpy",
    "require_numpy",
]
