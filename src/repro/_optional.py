"""The one optional third-party dependency, resolved once per process.

**numba** (the ``compiled`` extra): the compiled kernel tier
(:mod:`repro.compiled`) JITs the batched transition kernels and the
splitmix64 counter path; without it every compiled cell degrades to the
numpy batch path (and further to scalar) with identical results.  All users
go through :data:`NUMBA` / :func:`have_numba`, so there is exactly one
import guard for it in the code base.

Set ``REPRO_DISABLE_NUMBA=1`` in the environment to pretend numba is not
installed -- CI uses it to keep the fallback path honest.
"""

from __future__ import annotations

import os
from typing import Any, Optional

import numpy

#: numpy, a declared dependency: kept here only because bench/ reports its version.
NUMPY = numpy


def _load_numba() -> Optional[Any]:
    if os.environ.get("REPRO_DISABLE_NUMBA"):
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba


#: The numba module, or None when unavailable (not installed, or disabled via
#: ``REPRO_DISABLE_NUMBA``).  Resolved at import time: flipping the
#: environment variable mid-process does not re-resolve it.
NUMBA = _load_numba()


def have_numba() -> bool:
    """Whether the compiled (numba) kernel tier is available in this process."""
    return NUMBA is not None


__all__ = [
    "NUMBA",
    "NUMPY",
    "have_numba",
]
