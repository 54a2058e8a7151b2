"""The predicate-implementation layer (Section 4 of the paper).

* :mod:`repro.predimpl.program` -- the process scaffold Algorithms 2 and 3
  share (stable storage, engine wiring, reception rule, one builder);
* :mod:`repro.predimpl.down_good_period` -- Algorithm 2: ``P_su`` in
  "pi0-down" good periods;
* :mod:`repro.predimpl.arbitrary_good_period` -- Algorithm 3: ``P_k`` in
  "pi0-arbitrary" good periods;
* :mod:`repro.predimpl.translation` -- Algorithm 4: the ``P_k -> P_su``
  translation in ``f+1`` rounds (Theorem 8);
* :mod:`repro.predimpl.batched_translation` -- the replica-vectorised dual
  of Algorithm 4 (registered as the translation's batch kernel on import);
* :mod:`repro.predimpl.bounds` -- the closed-form good-period lengths of
  Theorems 3, 5, 6, 7 and Corollary 4;
* :mod:`repro.predimpl.stack` -- the two complete stacks, one
  :meth:`~repro.predimpl.program.RoundProgram.build` call each;
* :mod:`repro.predimpl.step_backend` -- the step-path execution backends
  (``step-scalar``/``step-batch``) wrapping the system simulator behind
  :class:`~repro.rounds.backend.ReplicaBatch`.
"""

from .arbitrary_good_period import ArbitraryGoodPeriodProgram
from .batched_translation import BatchTranslationKernel
from .bounds import (
    algorithm3_timeout,
    arbitrary_p2otr_length,
    arbitrary_p2otr_rounds,
    corollary4_p11otr_length,
    corollary4_p2otr_length,
    noninitial_to_initial_ratio,
    theorem3_good_period_length,
    theorem5_initial_good_period_length,
    theorem6_good_period_length,
    theorem7_initial_good_period_length,
)
from .down_good_period import DownGoodPeriodProgram
from .program import RoundProgram
from .stack import PredicateStack, build_arbitrary_stack, build_down_stack
from .translation import KernelToUniformTranslation, TranslationMessage, TranslationState
from .wire import WireKind, WireMessage, init_message, round_message

__all__ = [
    "WireKind",
    "WireMessage",
    "round_message",
    "init_message",
    "RoundProgram",
    "DownGoodPeriodProgram",
    "ArbitraryGoodPeriodProgram",
    "KernelToUniformTranslation",
    "TranslationMessage",
    "TranslationState",
    "BatchTranslationKernel",
    "PredicateStack",
    "build_down_stack",
    "build_arbitrary_stack",
    "algorithm3_timeout",
    "theorem3_good_period_length",
    "theorem5_initial_good_period_length",
    "theorem6_good_period_length",
    "theorem7_initial_good_period_length",
    "corollary4_p2otr_length",
    "corollary4_p11otr_length",
    "arbitrary_p2otr_length",
    "arbitrary_p2otr_rounds",
    "noninitial_to_initial_ratio",
]
