"""Convenience constructors for complete predicate-implementation stacks.

The paper's architecture (Figure 1) stacks an HO algorithm on top of a
predicate-implementation layer, which in turn runs on the system model.
This module wires the pieces together, each stack with one
:meth:`RoundProgram.build <repro.predimpl.program.RoundProgram.build>` call:

* :func:`build_down_stack` -- OneThirdRule (or any HO algorithm) over
  Algorithm 2, for "pi0-down" good periods;
* :func:`build_arbitrary_stack` -- an HO algorithm over Algorithm 4 (the
  ``P_k -> P_su`` translation) over Algorithm 3, for "pi0-arbitrary" good
  periods.  The translation can be omitted to study Algorithm 3 and ``P_k``
  in isolation (Theorems 6 and 7).

Each constructor returns the per-process programs plus the shared trace, so
the caller only has to hand the programs to a
:class:`~repro.sysmodel.simulator.SystemSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..core.algorithm import HOAlgorithm
from ..sysmodel.params import SynchronyParams
from ..sysmodel.process import StepProgram
from ..sysmodel.trace import SystemRunTrace
from .arbitrary_good_period import ArbitraryGoodPeriodProgram
from .down_good_period import DownGoodPeriodProgram
from .translation import KernelToUniformTranslation


@dataclass
class PredicateStack:
    """A ready-to-simulate stack: per-process step programs plus the shared trace."""

    programs: List[StepProgram]
    trace: SystemRunTrace


def build_down_stack(
    algorithm: HOAlgorithm,
    initial_values: Sequence[Any],
    params: SynchronyParams,
    trace: Optional[SystemRunTrace] = None,
    observers: Sequence[Any] = (),
) -> PredicateStack:
    """An HO algorithm over Algorithm 2 (for "pi0-down" good periods).

    *observers* attach to the shared round engine and see every round
    record as the step-level run produces it (streaming predicate
    monitors use this hook).
    """
    trace = trace if trace is not None else SystemRunTrace(n=algorithm.n)
    programs = DownGoodPeriodProgram.build(algorithm, initial_values, params, trace, observers)
    return PredicateStack(programs, trace)


def build_arbitrary_stack(
    algorithm: HOAlgorithm,
    f: int,
    initial_values: Sequence[Any],
    params: SynchronyParams,
    trace: Optional[SystemRunTrace] = None,
    use_translation: bool = True,
    observers: Sequence[Any] = (),
) -> PredicateStack:
    """An HO algorithm over (optionally Algorithm 4 over) Algorithm 3.

    With *use_translation* the inner rounds driven by Algorithm 3 belong to
    the translation; ``f+1`` of them make up one upper-layer macro-round.
    Without it, the upper algorithm's rounds are Algorithm 3's rounds
    directly (useful for measuring ``P_k`` in isolation: Theorems 6 and 7).
    *observers* attach to the shared round engine (streaming predicate
    monitors use this hook).
    """
    trace = trace if trace is not None else SystemRunTrace(n=algorithm.n)
    if use_translation:
        algorithm = KernelToUniformTranslation(algorithm, f)
    programs = ArbitraryGoodPeriodProgram.build(
        algorithm, initial_values, params, trace, observers, f=f
    )
    return PredicateStack(programs, trace)


__all__ = ["PredicateStack", "build_down_stack", "build_arbitrary_stack"]
