"""Nopython duals of the batched transition kernels and the splitmix64 path.

Every function here is written in *nopython style* -- explicit loops over
preallocated arrays, no Python objects, no fancy indexing -- so that the
very same code object runs two ways:

* **jitted**: when numba is importable (:data:`repro._optional.NUMBA`),
  each core is wrapped in ``@njit`` at import time and the fused round
  loop of :class:`repro.compiled.engine.CompiledEngine` runs K rounds per
  compiled call;
* **interpreted**: without numba (or under the backend's ``interpreted``
  test mode) the plain function runs under CPython on the same arrays.
  This is how the numba-free container pins the cores' bit-identity
  against the numpy batch kernels and the scalar reference.

A *chunk core* advances all R replicas through up to K rounds of one
algorithm: per active replica it polls the decide-scope (the scalar
between-round poll), unpacks the round's heard-bits from the
``(K, R, n, W)`` uint64 word chunk via precomputed ``word_of``/``bitmask``
lookups (no runtime shifts -- mixed-width shift semantics differ between
numpy builds), applies the transition with the numpy kernels' exact
tie-breaks, latches first decisions, and updates the message accounting.
Replicas are independent, so the replica-outer loop is exactly the
lockstep semantics of :class:`repro.batch.engine.BatchEngine`.

The registry at the bottom (:class:`CompiledKernel`,
:func:`register_compiled_kernel`, :func:`compiled_kernel_for`) maps each
batch kernel class to its compiled dual plus the parity test that pins it
-- held to that by ``tests/compiled/test_compiled_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Type

import numpy as np

from .._optional import NUMBA
from ..algorithms.batched import (
    BatchKernel,
    BatchLastVoting,
    BatchOneThirdRule,
    BatchUniformVoting,
)
from ..algorithms.last_voting import LastVoting
from ..algorithms.one_third_rule import OneThirdRule
from ..algorithms.uniform_voting import UniformVoting

# The splitmix64 constants -- shared with the scalar/array implementations
# in repro.engine.counter (friend access; one definition per constant).
from ..engine.counter import _MIX1, _MIX2, _PHI
from ..predimpl.batched_translation import BatchTranslationKernel
from ..predimpl.translation import KernelToUniformTranslation

# uint64-typed constants: inside the cores every uint64 operand must already
# be uint64 -- mixed-width arithmetic promotes to float64 under numpy and
# mis-types under numba.
_U_PHI = np.uint64(_PHI)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U_30 = np.uint64(30)
_U_27 = np.uint64(27)
_U_31 = np.uint64(31)


# --------------------------------------------------------------------------- #
# the fused splitmix64 counter-hash core
# --------------------------------------------------------------------------- #


def _counter_hash_core(prefix: Any, last: Any, out: Any) -> None:
    """The last stage of ``counter_hash`` over an ``(M, L)`` block, one pass.

    ``prefix`` is the ``(M,)`` uint64 hash of every counter but the last,
    ``last`` the ``(L,)`` uint64 values of the last counter, and
    ``out[i, j]`` receives ``mix64((prefix[i] + PHI) ^ last[j])`` -- no
    broadcast copy of either input, no shift temporary.
    """
    for i in range(prefix.shape[0]):
        bumped = prefix[i] + _U_PHI
        for j in range(last.shape[0]):
            z = bumped ^ last[j]
            z = z ^ (z >> _U_30)
            z = z * _U_MIX1
            z = z ^ (z >> _U_27)
            z = z * _U_MIX2
            out[i, j] = z ^ (z >> _U_31)


def counter_hash_rows(
    prefix: Any, last: Any, out: Any, compiled: Optional[bool] = None
) -> None:
    """The fused last stage of :func:`repro.engine.counter.counter_hash_array`.

    Every ``(R, n, n)`` link draw ends in a stage whose running hash is
    constant along the last axis and whose counter varies only along it;
    that function hands the stage here -- flat ``(M,)`` prefix, ``(L,)``
    last counter, ``(M, L)`` view of the caller's hash buffer -- when numba
    is available, in place of its nine tiled numpy passes.

    *compiled* selects the jitted (True) or interpreted (False) core; None
    means "jitted when numba is available".  Values are bit-identical
    either way.
    """
    if compiled is None:
        compiled = _counter_hash_jit is not None
    if compiled and _counter_hash_jit is not None:
        _counter_hash_jit(prefix, last, out)
    else:
        # uint64 wraparound is the point; numpy warns about it on scalars.
        with np.errstate(over="ignore"):
            _counter_hash_core(prefix, last, out)


# --------------------------------------------------------------------------- #
# the chunk cores: K fused rounds per call, replica-outer
# --------------------------------------------------------------------------- #


def _otr_chunk(
    words: Any,
    word_of: Any,
    bitmask: Any,
    base_round: int,
    full_horizon: bool,
    scope: Any,
    active: Any,
    x: Any,
    decision_code: Any,
    decision_round: Any,
    rounds_executed: Any,
    messages_sent: Any,
    messages_delivered: Any,
) -> None:
    """K rounds of :class:`BatchOneThirdRule` for every active replica."""
    K = words.shape[0]
    R = words.shape[1]
    n = x.shape[1]
    heard = np.empty((n, n), dtype=np.bool_)
    hcs = np.empty(n, dtype=np.int64)
    newx = np.empty(n, dtype=np.int32)
    counts = np.empty(n, dtype=np.int32)
    for r in range(R):
        if not active[r]:
            continue
        for k in range(K):
            if not full_horizon:
                done = True
                for si in range(scope.shape[0]):
                    if decision_code[r, scope[si]] < 0:
                        done = False
                        break
                if done:
                    active[r] = False
                    break
            rnd = base_round + k + 1
            delivered = 0
            for p in range(n):
                hc = 0
                for q in range(n):
                    h = (words[k, r, p, word_of[q]] & bitmask[q]) != 0
                    heard[p, q] = h
                    if h:
                        hc += 1
                hcs[p] = hc
                delivered += hc
            for p in range(n):
                hc = hcs[p]
                if 3 * hc > 2 * n:
                    for v in range(n):
                        counts[v] = 0
                    minheard = n + 1
                    for q in range(n):
                        if heard[p, q]:
                            c = x[r, q]
                            counts[c] += 1
                            if c < minheard:
                                minheard = c
                    # The first code attaining the top count, as the numpy
                    # kernel's argmax: a tie is never adopted nor decided
                    # (both need top > hc - top), so no tie-break is owed.
                    top = 0
                    winner = 0
                    for v in range(n):
                        if counts[v] > top:
                            top = counts[v]
                            winner = v
                    if hc - top <= n // 3:
                        newx[p] = winner
                    else:
                        newx[p] = minheard
                    if 3 * top > 2 * n and decision_code[r, p] < 0:
                        decision_code[r, p] = winner
                        decision_round[r, p] = rnd
                else:
                    newx[p] = x[r, p]
            for p in range(n):
                x[r, p] = newx[p]
            rounds_executed[r] = rnd
            messages_sent[r] += n * n
            messages_delivered[r] += delivered


def _uv_chunk(
    words: Any,
    word_of: Any,
    bitmask: Any,
    base_round: int,
    full_horizon: bool,
    scope: Any,
    active: Any,
    x: Any,
    vote: Any,
    decision_code: Any,
    decision_round: Any,
    rounds_executed: Any,
    messages_sent: Any,
    messages_delivered: Any,
) -> None:
    """K rounds of :class:`BatchUniformVoting` for every active replica."""
    K = words.shape[0]
    R = words.shape[1]
    n = x.shape[1]
    heard = np.empty((n, n), dtype=np.bool_)
    newx = np.empty(n, dtype=np.int32)
    for r in range(R):
        if not active[r]:
            continue
        for k in range(K):
            if not full_horizon:
                done = True
                for si in range(scope.shape[0]):
                    if decision_code[r, scope[si]] < 0:
                        done = False
                        break
                if done:
                    active[r] = False
                    break
            rnd = base_round + k + 1
            delivered = 0
            for p in range(n):
                for q in range(n):
                    h = (words[k, r, p, word_of[q]] & bitmask[q]) != 0
                    heard[p, q] = h
                    if h:
                        delivered += 1
            if rnd % 2 == 1:
                # Voting round: vote the common estimate iff unanimous.
                for p in range(n):
                    hc = 0
                    lo = n + 1
                    hi = -1
                    for q in range(n):
                        if heard[p, q]:
                            hc += 1
                            c = x[r, q]
                            if c < lo:
                                lo = c
                            if c > hi:
                                hi = c
                    if hc > 0 and lo == hi:
                        vote[r, p] = lo
                    else:
                        vote[r, p] = -1
            else:
                # Resolve round: adopt the first heard vote (or the min
                # estimate), decide iff every heard sender voted.
                for p in range(n):
                    hc = 0
                    nv = 0
                    first_vote = -1
                    minheard = n + 1
                    for q in range(n):
                        if heard[p, q]:
                            hc += 1
                            c = x[r, q]
                            if c < minheard:
                                minheard = c
                            if vote[r, q] >= 0:
                                if nv == 0:
                                    first_vote = vote[r, q]
                                nv += 1
                    if hc > 0:
                        if nv > 0:
                            newx[p] = first_vote
                        else:
                            newx[p] = minheard
                        if nv == hc and decision_code[r, p] < 0:
                            decision_code[r, p] = first_vote
                            decision_round[r, p] = rnd
                    else:
                        newx[p] = x[r, p]
                for p in range(n):
                    x[r, p] = newx[p]
                    vote[r, p] = -1
            rounds_executed[r] = rnd
            messages_sent[r] += n * n
            messages_delivered[r] += delivered


def _lv_chunk(
    words: Any,
    word_of: Any,
    bitmask: Any,
    base_round: int,
    full_horizon: bool,
    scope: Any,
    active: Any,
    x: Any,
    timestamp: Any,
    vote: Any,
    commit: Any,
    ready: Any,
    rank_of_code: Any,
    code_at_rank: Any,
    rounds_per_phase: int,
    decision_code: Any,
    decision_round: Any,
    rounds_executed: Any,
    messages_sent: Any,
    messages_delivered: Any,
) -> None:
    """K rounds of :class:`BatchLastVoting` for every active replica."""
    K = words.shape[0]
    R = words.shape[1]
    n = x.shape[1]
    heard = np.empty((n, n), dtype=np.bool_)
    for r in range(R):
        if not active[r]:
            continue
        for k in range(K):
            if not full_horizon:
                done = True
                for si in range(scope.shape[0]):
                    if decision_code[r, scope[si]] < 0:
                        done = False
                        break
                if done:
                    active[r] = False
                    break
            rnd = base_round + k + 1
            delivered = 0
            for p in range(n):
                for q in range(n):
                    h = (words[k, r, p, word_of[q]] & bitmask[q]) != 0
                    heard[p, q] = h
                    if h:
                        delivered += 1
            phase = (rnd - 1) // rounds_per_phase + 1
            step = (rnd - 1) % rounds_per_phase + 1
            coord = (phase - 1) % n
            if step == 1:
                # Coordinator selects the best-timestamped estimate from a
                # majority, smallest by repr-rank among ties.
                hc = 0
                for q in range(n):
                    if heard[coord, q]:
                        hc += 1
                if 2 * hc > n:
                    best_ts = -1
                    for q in range(n):
                        if heard[coord, q] and timestamp[r, q] > best_ts:
                            best_ts = timestamp[r, q]
                    best_rank = n
                    for q in range(n):
                        if heard[coord, q] and timestamp[r, q] == best_ts:
                            rk = rank_of_code[r, x[r, q]]
                            if rk < best_rank:
                                best_rank = rk
                    if best_rank > n - 1:
                        best_rank = n - 1
                    vote[r, coord] = code_at_rank[r, best_rank]
                    commit[r, coord] = True
            elif step == 2:
                # Everyone who hears a committed coordinator adopts its vote.
                if commit[r, coord]:
                    v = vote[r, coord]
                    for p in range(n):
                        if heard[p, coord]:
                            x[r, p] = v
                            timestamp[r, p] = phase
            elif step == 3:
                # Coordinator counts current-phase acks for a majority.
                acks = 0
                for q in range(n):
                    if heard[coord, q] and timestamp[r, q] == phase:
                        acks += 1
                if 2 * acks > n:
                    ready[r, coord] = True
            else:
                # Step 4: decide on a heard "decide"; phase flags reset.
                if ready[r, coord]:
                    v = vote[r, coord]
                    for p in range(n):
                        if heard[p, coord] and decision_code[r, p] < 0:
                            decision_code[r, p] = v
                            decision_round[r, p] = rnd
                for p in range(n):
                    commit[r, p] = False
                    ready[r, p] = False
            rounds_executed[r] = rnd
            messages_sent[r] += n * n
            messages_delivered[r] += delivered


def _translation_chunk(
    words: Any,
    word_of: Any,
    bitmask: Any,
    base_round: int,
    full_horizon: bool,
    scope: Any,
    active: Any,
    listen: Any,
    known: Any,
    f: Any,
    rounds_per_macro: Any,
    x: Any,
    decision_code: Any,
    decision_round: Any,
    rounds_executed: Any,
    messages_sent: Any,
    messages_delivered: Any,
) -> None:
    """K rounds of :class:`BatchTranslationKernel` for every active replica.

    ``x``/``decision_code``/``decision_round`` are the *inner*
    BatchOneThirdRule arrays; the macro-round boundary feeds the NewHO
    matrix straight into the inlined OneThirdRule transition.  ``f`` and
    ``rounds_per_macro`` are the kernel's ``(R,)`` row vectors.
    """
    K = words.shape[0]
    R = words.shape[1]
    n = x.shape[1]
    heard = np.empty((n, n), dtype=np.bool_)
    scratch = np.empty((n, n), dtype=np.bool_)
    new_ho = np.empty((n, n), dtype=np.bool_)
    newx = np.empty(n, dtype=np.int32)
    counts = np.empty(n, dtype=np.int32)
    for r in range(R):
        if not active[r]:
            continue
        for k in range(K):
            if not full_horizon:
                done = True
                for si in range(scope.shape[0]):
                    if decision_code[r, scope[si]] < 0:
                        done = False
                        break
                if done:
                    active[r] = False
                    break
            rnd = base_round + k + 1
            delivered = 0
            for p in range(n):
                for q in range(n):
                    h = (words[k, r, p, word_of[q]] & bitmask[q]) != 0
                    heard[p, q] = h
                    if h:
                        delivered += 1
                    # listen' = listen & heard, the round's gossip sources
                    listen[r, p, q] = listen[r, p, q] and h
            if rnd % rounds_per_macro[r] != 0:
                # Gossip merge over the start-of-round known (messages
                # carry pre-transition state): scratch, then commit.
                for p in range(n):
                    for kk in range(n):
                        v = known[r, p, kk]
                        if not v:
                            for q in range(n):
                                if listen[r, p, q] and known[r, q, kk]:
                                    v = True
                                    break
                        scratch[p, kk] = v
                for p in range(n):
                    for kk in range(n):
                        known[r, p, kk] = scratch[p, kk]
            else:
                # Macro-round boundary: NewHO = report count >= n - f,
                # feeding the inner OneThirdRule transition.
                for p in range(n):
                    for kk in range(n):
                        cnt = 0
                        for q in range(n):
                            if listen[r, p, q] and known[r, q, kk]:
                                cnt += 1
                        new_ho[p, kk] = cnt >= n - f[r]
                for p in range(n):
                    hc = 0
                    for q in range(n):
                        if new_ho[p, q]:
                            hc += 1
                    if 3 * hc > 2 * n:
                        for v in range(n):
                            counts[v] = 0
                        minheard = n + 1
                        for q in range(n):
                            if new_ho[p, q]:
                                c = x[r, q]
                                counts[c] += 1
                                if c < minheard:
                                    minheard = c
                        top = 0
                        winner = 0
                        for v in range(n):
                            if counts[v] > top:
                                top = counts[v]
                                winner = v
                        if hc - top <= n // 3:
                            newx[p] = winner
                        else:
                            newx[p] = minheard
                        if 3 * top > 2 * n and decision_code[r, p] < 0:
                            decision_code[r, p] = winner
                            decision_round[r, p] = rnd
                    else:
                        newx[p] = x[r, p]
                for p in range(n):
                    x[r, p] = newx[p]
                for p in range(n):
                    for q in range(n):
                        listen[r, p, q] = True
                        known[r, p, q] = p == q
            rounds_executed[r] = rnd
            messages_sent[r] += n * n
            messages_delivered[r] += delivered


# --------------------------------------------------------------------------- #
# jitted twins (numba present) -- same code objects, compiled
# --------------------------------------------------------------------------- #

if NUMBA is not None:
    _counter_hash_jit = NUMBA.njit(cache=True)(_counter_hash_core)
    _otr_chunk_jit = NUMBA.njit(cache=True)(_otr_chunk)
    _uv_chunk_jit = NUMBA.njit(cache=True)(_uv_chunk)
    _lv_chunk_jit = NUMBA.njit(cache=True)(_lv_chunk)
    _translation_chunk_jit = NUMBA.njit(cache=True)(_translation_chunk)
else:
    _counter_hash_jit = None
    _otr_chunk_jit = None
    _uv_chunk_jit = None
    _lv_chunk_jit = None
    _translation_chunk_jit = None


# --------------------------------------------------------------------------- #
# chunk runners: extract the batch kernel's state arrays, dispatch a core
# --------------------------------------------------------------------------- #


def _run_one_third_rule(kernel, compiled, words, word_of, bitmask, base_round,
                        full_horizon, scope, active, rounds_executed,
                        messages_sent, messages_delivered):
    core = _otr_chunk_jit if compiled else _otr_chunk
    core(words, word_of, bitmask, base_round, full_horizon, scope, active,
         kernel.x, kernel.decision_code, kernel.decision_round,
         rounds_executed, messages_sent, messages_delivered)


def _run_uniform_voting(kernel, compiled, words, word_of, bitmask, base_round,
                        full_horizon, scope, active, rounds_executed,
                        messages_sent, messages_delivered):
    core = _uv_chunk_jit if compiled else _uv_chunk
    core(words, word_of, bitmask, base_round, full_horizon, scope, active,
         kernel.x, kernel.vote, kernel.decision_code, kernel.decision_round,
         rounds_executed, messages_sent, messages_delivered)


def _run_last_voting(kernel, compiled, words, word_of, bitmask, base_round,
                     full_horizon, scope, active, rounds_executed,
                     messages_sent, messages_delivered):
    core = _lv_chunk_jit if compiled else _lv_chunk
    core(words, word_of, bitmask, base_round, full_horizon, scope, active,
         kernel.x, kernel.timestamp, kernel.vote, kernel.commit, kernel.ready,
         kernel.rank_of_code, kernel.code_at_rank, kernel.ROUNDS_PER_PHASE,
         kernel.decision_code, kernel.decision_round,
         rounds_executed, messages_sent, messages_delivered)


def _run_kernel_to_uniform(kernel, compiled, words, word_of, bitmask, base_round,
                           full_horizon, scope, active, rounds_executed,
                           messages_sent, messages_delivered):
    core = _translation_chunk_jit if compiled else _translation_chunk
    inner = kernel._inner
    core(words, word_of, bitmask, base_round, full_horizon, scope, active,
         kernel.listen, kernel.known, kernel.f, kernel.rounds_per_macro,
         inner.x, inner.decision_code, inner.decision_round,
         rounds_executed, messages_sent, messages_delivered)


# --------------------------------------------------------------------------- #
# the compiled kernel registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompiledKernel:
    """One compiled dual: which batch kernel it shadows, and how to run it.

    *parity_test* names the pytest node that pins this dual's bit-identity
    against the numpy and scalar paths -- a tier-1 test requires the file
    and the node to exist, so a compiled kernel cannot be registered
    without its parity evidence.
    """

    algorithm_class: Type[Any]
    batch_kernel_class: Type[BatchKernel]
    parity_test: str
    runner: Callable[..., None]


_COMPILED: Dict[Type[BatchKernel], CompiledKernel] = {}


def register_compiled_kernel(spec: CompiledKernel) -> CompiledKernel:
    """Register *spec* as the compiled dual of its batch kernel class."""
    _COMPILED[spec.batch_kernel_class] = spec
    return spec


def compiled_kernel_for(kernel_class: Type[BatchKernel]) -> Optional[CompiledKernel]:
    """The compiled dual of a batch kernel class, or None.

    Exact class match only, for the same reason as
    :func:`repro.algorithms.batched.batch_kernel_for`: a subclass may have
    overridden ``step``, and silently running the base core would break
    bit-identity.
    """
    return _COMPILED.get(kernel_class)


_PARITY_TESTS = "tests/compiled/test_compiled_parity.py"

register_compiled_kernel(CompiledKernel(
    algorithm_class=OneThirdRule,
    batch_kernel_class=BatchOneThirdRule,
    parity_test=_PARITY_TESTS + "::test_classic_grid_parity",
    runner=_run_one_third_rule,
))
register_compiled_kernel(CompiledKernel(
    algorithm_class=UniformVoting,
    batch_kernel_class=BatchUniformVoting,
    parity_test=_PARITY_TESTS + "::test_classic_grid_parity",
    runner=_run_uniform_voting,
))
register_compiled_kernel(CompiledKernel(
    algorithm_class=LastVoting,
    batch_kernel_class=BatchLastVoting,
    parity_test=_PARITY_TESTS + "::test_classic_grid_parity",
    runner=_run_last_voting,
))
register_compiled_kernel(CompiledKernel(
    algorithm_class=KernelToUniformTranslation,
    batch_kernel_class=BatchTranslationKernel,
    parity_test=_PARITY_TESTS + "::test_translation_parity",
    runner=_run_kernel_to_uniform,
))


__all__ = [
    "CompiledKernel",
    "compiled_kernel_for",
    "counter_hash_rows",
    "register_compiled_kernel",
]
