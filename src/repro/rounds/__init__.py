"""The shared round-execution core.

One :class:`RoundEngine` owns the send -> environment -> transition loop for
every layer of the reproduction; the environment is a :class:`RoundTransport`
(oracle-backed for the lockstep HO machine, step-backed for the
predicate-implementation programs), and every executed round is recorded
under the unified :class:`RoundRecord` schema.  Heard-of sets travel as
integer bitmasks in the hot path (:mod:`repro.rounds.bitmask`).

This package sits *below* :mod:`repro.core`: it depends only on the standard
library, so every layer above can share it without import cycles.
"""

from .backend import (
    AUTO_BACKEND,
    ExecutionBackend,
    MonitorSpec,
    ReplicaBatch,
    ReplicaOutcome,
    ReplicaTask,
    ScalarBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .fallback import FallbackReason
from .bitmask import (
    WORD_BITS,
    bit_count,
    full_mask,
    iter_bits,
    mask_contains,
    mask_issubset,
    mask_of,
    mask_to_frozenset,
    mask_to_words,
    word_count,
    words_to_mask,
)
from .engine import (
    OracleTransport,
    RoundAlgorithm,
    RoundEngine,
    RoundObserver,
    RoundTraceSink,
    RoundTransport,
    StepTransport,
)
from .record import DecisionRecord, RoundRecord

__all__ = [
    # bitmask helpers
    "bit_count",
    "full_mask",
    "mask_of",
    "mask_to_frozenset",
    "iter_bits",
    "mask_contains",
    "mask_issubset",
    "WORD_BITS",
    "word_count",
    "mask_to_words",
    "words_to_mask",
    # execution backends
    "AUTO_BACKEND",
    "ExecutionBackend",
    "ScalarBackend",
    "MonitorSpec",
    "ReplicaTask",
    "ReplicaBatch",
    "ReplicaOutcome",
    "register_backend",
    "backend_names",
    "get_backend",
    "FallbackReason",
    # unified record schema
    "RoundRecord",
    "DecisionRecord",
    # engine
    "RoundEngine",
    "RoundTransport",
    "OracleTransport",
    "StepTransport",
    "RoundAlgorithm",
    "RoundTraceSink",
    "RoundObserver",
]
