"""The closed vocabulary of backend fallback reasons.

Every execution backend that can decline to vectorise a cell records *why*
in ``last_fallback_reason`` (and the super backend per cell in
``last_fallback_reasons``); the sweep executor stamps the reason into the
wire record's backend label (``"super:scalar-fallback (<reason>)"``), tests
pin it, and the benchmark harness reports it.  Scattering the strings over
the backends made the vocabulary drift-prone and impossible to audit, so
they live here as one :class:`FallbackReason` enum: each member's value is
the message template, :meth:`FallbackReason.render` formats it, and the
``repro.lint`` rule REP104 statically rejects raw string literals in the
backends' fallback decisions and in every ``BatchUnsupported(...)``.

This module sits in :mod:`repro.rounds` (below every backend) and depends
only on the standard library, so the batch, super and step backends -- and
the kernels, whose :class:`~repro.algorithms.batched.BatchUnsupported`
messages become fallback reasons verbatim -- can all share it without
cycles.
"""

from __future__ import annotations

from enum import Enum


class FallbackReason(Enum):
    """Why a backend declined its vectorised path for a cell.

    Members' values are ``str.format`` templates; call :meth:`render` with
    the template's keyword arguments to produce the recorded reason string.
    The wording is part of the observable contract (wire-record backend
    labels, pinned tests), so change it deliberately.
    """

    # -- the round-level tiers' one admission (repro.batch.backends) --- #
    MIXED_ALGORITHMS = "mixed algorithm classes: {classes}"
    NO_BATCH_KERNEL = "no batched kernel for {algorithm}"

    # -- value encoding (repro.algorithms.batched.encode_values) ------- #
    UNENCODABLE_VALUES = "initial values are not encodable: {error}"
    VALUE_REPR_COLLISION = (
        "values {kept!r} and {value!r} compare equal but differ "
        "in repr; the code table cannot represent both"
    )

    # -- the translation kernel (repro.predimpl.batched_translation) --- #
    INNER_NOT_ROUND_OBLIVIOUS = (
        "inner {inner} does not vectorise: the translation steps the inner "
        "kernel with the outer round number, which only a round-oblivious "
        "transition tolerates"
    )

    # -- the compiled backend (repro.compiled.backend) ------------------ #
    NO_NUMBA = "numba unavailable (install the 'compiled' extra)"
    NO_COMPILED_KERNEL = "no compiled dual for {kernel}"
    OPAQUE_COMPILED_ORACLE = (
        "oracle needs the per-replica query loop; the fused round loop "
        "cannot precompute its masks"
    )
    MONITORED_COMPILED_CELL = "monitored runs take the numpy batch path"
    FINGERPRINTED_COMPILED_CELL = "fingerprinted runs take the numpy batch path"

    # -- the step backend (repro.predimpl.step_backend) ---------------- #
    MIXED_STEP_ENVIRONMENTS = "replicas disagree on the step environment"
    ARBITRARY_GOOD_STACK = (
        "the arbitrary-good stack does not vectorise "
        "(INIT/round wire protocol; event-granular timing)"
    )
    FAULTED_STEP_CELL = (
        "fault model {fault_model!r} breaks lockstep "
        "(down processes and bad-period timing are event-granular)"
    )

    def render(self, **context: object) -> str:
        """The recorded reason string: the member's template, formatted."""
        return self.value.format(**context)


__all__ = ["FallbackReason"]
