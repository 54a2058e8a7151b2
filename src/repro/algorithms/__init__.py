"""Consensus algorithms expressed in the HO model (the paper's algorithmic layer).

* :class:`~repro.algorithms.one_third_rule.OneThirdRule` -- Algorithm 1 of
  the paper, paired with ``P_otr`` / ``P_restr_otr``;
* :class:`~repro.algorithms.last_voting.LastVoting` -- the Paxos-like
  coordinator-based algorithm the paper refers to (reference [6]);
* :class:`~repro.algorithms.uniform_voting.UniformVoting` -- a
  two-rounds-per-phase algorithm for non-empty-kernel predicates.

:mod:`repro.algorithms.batched` holds the replica-vectorised batch kernels
of all three (the ``(R, n)``-array duals behind the batch execution
backend).
"""

from .batched import (
    BatchKernel,
    BatchLastVoting,
    BatchOneThirdRule,
    BatchUniformVoting,
    BatchUnsupported,
    batch_kernel_for,
    register_batch_kernel,
)
from .last_voting import LastVoting, LastVotingMessage, LastVotingState
from .one_third_rule import OneThirdRule, OneThirdRuleMessage, OneThirdRuleState
from .uniform_voting import UniformVoting, UniformVotingMessage, UniformVotingState

__all__ = [
    "OneThirdRule",
    "OneThirdRuleState",
    "OneThirdRuleMessage",
    "LastVoting",
    "LastVotingState",
    "LastVotingMessage",
    "UniformVoting",
    "UniformVotingState",
    "UniformVotingMessage",
    # batched kernels
    "BatchKernel",
    "BatchOneThirdRule",
    "BatchUniformVoting",
    "BatchLastVoting",
    "BatchUnsupported",
    "batch_kernel_for",
    "register_batch_kernel",
]
