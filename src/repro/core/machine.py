"""The HO machine: a pure round-level executor for HO algorithms.

The machine realises the coarse-grained round structure of the HO model: in
each round every process first computes its message with the sending
function, then the *environment* -- represented by a heard-of oracle --
decides, for every process, from which senders the message is actually
received, and finally every process applies its transition function.

The loop itself lives in the shared :class:`repro.rounds.RoundEngine`; the
machine is a thin round-level policy over it, pairing the engine with an
:class:`~repro.rounds.engine.OracleTransport` (the heard-of oracle plays the
adversary/environment) and a :class:`~repro.core.types.RunTrace`.  The
oracles shipped with the library live in :mod:`repro.adversaries`.

This executor is deliberately independent of the step-level system model of
Section 4 (see :mod:`repro.sysmodel` and :mod:`repro.predimpl`), which
drives the *same* engine through a step-backed transport: it is the right
tool for studying the algorithmic layer in isolation, for checking
Theorems 1, 2 and 8, and for property-based testing of safety invariants.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

from ..rounds.engine import OracleTransport, RoundEngine
from .algorithm import HOAlgorithm
from .types import (
    HOCollection,
    ProcessId,
    Round,
    RunTrace,
    all_processes,
)

#: A heard-of oracle: given the round and the receiving process, return the
#: set of processes it hears of in that round.  The machine intersects the
#: returned set with Pi, so oracles may be sloppy about bounds.  Oracles may
#: additionally implement ``ho_mask(round, process) -> int`` (all the oracles
#: of :mod:`repro.adversaries` do) to skip set construction entirely.
HOOracle = Callable[[Round, ProcessId], Iterable[ProcessId]]


class HOMachine:
    """Round-by-round executor of an :class:`~repro.core.algorithm.HOAlgorithm`.

    Parameters
    ----------
    algorithm:
        The HO algorithm to execute.
    oracle:
        The heard-of oracle controlling ``HO(p, r)`` for every process and
        round.  See :mod:`repro.adversaries` for ready-made oracles and
        combinators.
    initial_values:
        The initial value of each process, either a sequence indexed by
        process id or a mapping.
    observers:
        :class:`~repro.rounds.engine.RoundObserver` hooks fed every round
        record as it is produced (e.g. a
        :class:`~repro.predicates.monitors.MonitorBank`, which runs the
        array predicate monitors over the run).  An observer whose
        ``stop_requested`` turns true stops :meth:`run_until_decision`
        early, between rounds.
    """

    def __init__(
        self,
        algorithm: HOAlgorithm,
        oracle: HOOracle,
        initial_values: Sequence[Any] | Mapping[ProcessId, Any],
        observers: Sequence[Any] = (),
    ) -> None:
        self._algorithm = algorithm
        self._n = algorithm.n
        self._values: Dict[ProcessId, Any] = self._normalise_values(initial_values)
        self._states: Dict[ProcessId, Any] = {
            p: algorithm.initial_state(p, self._values[p]) for p in range(self._n)
        }
        self._round: Round = 0
        self._trace = RunTrace(n=self._n, ho_collection=HOCollection(self._n))
        self._trace.initial_values = dict(self._values)
        self._engine = RoundEngine(
            algorithm,
            OracleTransport(oracle, self._n),
            self._trace,
            observers=observers,
        )

    def _normalise_values(
        self, initial_values: Sequence[Any] | Mapping[ProcessId, Any]
    ) -> Dict[ProcessId, Any]:
        if isinstance(initial_values, Mapping):
            values = dict(initial_values)
        else:
            values = dict(enumerate(initial_values))
        missing = set(range(self._n)) - set(values)
        if missing:
            raise ValueError(f"missing initial values for processes {sorted(missing)}")
        extra = set(values) - set(range(self._n))
        if extra:
            raise ValueError(f"initial values given for unknown processes {sorted(extra)}")
        return values

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def algorithm(self) -> HOAlgorithm:
        """The algorithm being executed."""
        return self._algorithm

    @property
    def engine(self) -> RoundEngine:
        """The shared round engine executing this machine's rounds."""
        return self._engine

    @property
    def current_round(self) -> Round:
        """The last round that was fully executed (0 before the first round)."""
        return self._round

    @property
    def trace(self) -> RunTrace:
        """The trace accumulated so far."""
        return self._trace

    def state(self, process: ProcessId) -> Any:
        """The current state of *process*."""
        return self._states[process]

    def decisions(self) -> Dict[ProcessId, Any]:
        """Current decisions, per process (absent when not yet decided)."""
        out: Dict[ProcessId, Any] = {}
        for p in range(self._n):
            decision = self._algorithm.decision(self._states[p])
            if decision is not None:
                out[p] = decision
        return out

    def all_decided(self, scope: Optional[Iterable[ProcessId]] = None) -> bool:
        """Whether every process in *scope* (default: all) has decided."""
        scope_set = all_processes(self._n) if scope is None else frozenset(scope)
        return scope_set.issubset(self.decisions())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_round(self) -> Round:
        """Execute one full round and return its round number."""
        self._round += 1
        self._engine.execute_round(self._round, self._states)
        return self._round

    def run(self, rounds: int) -> RunTrace:
        """Execute *rounds* additional rounds and return the trace."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_round()
        return self._trace

    def run_until_decision(
        self,
        max_rounds: int,
        scope: Optional[Iterable[ProcessId]] = None,
    ) -> RunTrace:
        """Run until every process in *scope* decided, or *max_rounds* rounds elapsed.

        An attached observer requesting an early stop (e.g. a monitor
        bank's "predicate held for k rounds" policy) also ends the run,
        between rounds.
        """
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        scope_set = all_processes(self._n) if scope is None else frozenset(scope)
        while (
            self._round < max_rounds
            and not self.all_decided(scope_set)
            and not self._engine.stop_requested
        ):
            self.run_round()
        return self._trace


__all__ = ["HOMachine", "HOOracle"]
