"""The compiled kernel tier: JIT'd transition kernels behind the registry.

Importing this package registers the ``compiled`` execution backend
(:class:`~repro.compiled.backend.CompiledBackend`) and the compiled duals
of the batched transition kernels (:mod:`repro.compiled.kernels`).  The
backend registry (:func:`repro.rounds.backend.get_backend`) imports it
lazily, and resolves ``auto`` to ``compiled`` exactly when numba is
importable -- without numba the tier is still registered, and every run
degrades to the numpy batch path (and further to scalar) with identical
results.
"""

from .backend import CompiledBackend
from .engine import CompiledEngine
from .kernels import (
    CompiledKernel,
    compiled_kernel_for,
    counter_hash_rows,
    register_compiled_kernel,
)

__all__ = [
    "CompiledBackend",
    "CompiledEngine",
    "CompiledKernel",
    "compiled_kernel_for",
    "counter_hash_rows",
    "register_compiled_kernel",
]
