"""The scenario registry of the experiment runner.

Scenarios -- end-to-end consensus runs, ``fn(fault_model, n=..., seed=...,
**params) -> ScenarioResult`` -- are registered under string names so that
the sweep executor can address them from worker processes (a name pickles
trivially; a closure does not); the scenario modules of
:mod:`repro.workloads` register themselves here on import.

A second, flat namespace lists the known *fault models* (the shared axis
every scenario accepts), so the CLI can validate a grid before spending
hours executing it.

The registry itself depends on nothing above the standard library, so the
import direction is strictly ``workloads -> runner.registry`` and worker
processes populate it by importing :mod:`repro.workloads`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional


class TaskRegistry:
    """Name -> callable registry of scenarios, plus the fault-model axis."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Callable] = {}
        self._fault_models: Dict[str, None] = {}
        self._monitorable: Dict[str, bool] = {}
        self._batch_builders: Dict[str, Callable] = {}
        self._backend_aliases: Dict[str, Dict[str, str]] = {}
        self._populated = False

    # -- registration -------------------------------------------------- #

    def register_scenario(
        self,
        name: str,
        fn: Callable,
        *,
        monitorable: bool = False,
        batch_builder: Optional[Callable] = None,
        backend_aliases: Optional[Mapping[str, str]] = None,
    ) -> Callable:
        """Register scenario *name*; returns *fn* so it can be used as a decorator.

        *monitorable* declares that the scenario accepts the
        ``predicates`` / ``stop_after_held`` keyword arguments and attaches
        streaming predicate monitors (the failure-detector baselines have no
        heard-of collection, so the CLI refuses ``--predicates`` for them up
        front).

        *batch_builder* declares the scenario batchable by exposing the
        cell's construction as data: a callable ``fn(fault_model, n=...,
        seeds=[...], **params)`` returning a
        :class:`~repro.rounds.backend.CellPlan` (the built
        :class:`~repro.rounds.backend.ReplicaBatch` plus the flattener to
        one flat per-replica outcome dict per seed, bit-identical to running
        the scalar scenario once per seed).  The sweep executor hands the
        plans of ``replicas=`` cells to an execution backend -- one per
        cell, or the whole grid at once on the super-batch path -- instead
        of doing R scalar runs.

        *backend_aliases* maps the sweep's generic backend choices
        (``auto``/``batch``/``compiled``/``super``/``scalar``) onto the
        scenario's own
        execution backends.  Step-path scenarios use it to route
        ``--backend batch`` to ``step-batch`` (and ``scalar`` to
        ``step-scalar``) without the sweep executor knowing what a step
        replica is; unmapped names pass through unchanged.
        """
        self._scenarios[name] = fn
        self._monitorable[name] = monitorable
        if batch_builder is not None:
            self._batch_builders[name] = batch_builder
        if backend_aliases is not None:
            self._backend_aliases[name] = dict(backend_aliases)
        return fn

    def register_fault_model(self, name: str) -> None:
        """Declare *name* a known fault model (the shared scenario axis)."""
        self._fault_models[name] = None

    # -- lookup -------------------------------------------------------- #

    def scenario(self, name: str) -> Callable:
        """The scenario runner registered under *name*."""
        self._ensure_populated()
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {self.scenario_names()}"
            ) from None

    def scenario_names(self) -> List[str]:
        self._ensure_populated()
        return sorted(self._scenarios)

    def fault_model_names(self) -> List[str]:
        self._ensure_populated()
        return sorted(self._fault_models)

    def scenario_is_monitorable(self, name: str) -> bool:
        """Whether scenario *name* supports streaming predicate monitors."""
        self._ensure_populated()
        return self._monitorable.get(name, False)

    def monitorable_scenario_names(self) -> List[str]:
        """The scenarios that accept ``predicates`` / ``stop_after_held``."""
        self._ensure_populated()
        return sorted(name for name, flag in self._monitorable.items() if flag)

    def batchable_scenario_names(self) -> List[str]:
        """The scenarios with a registered CellPlan builder (vectorisable cells)."""
        self._ensure_populated()
        return sorted(self._batch_builders)

    def batch_builder(self, name: str) -> Optional[Callable]:
        """The CellPlan builder of scenario *name*, or None when not batchable."""
        self._ensure_populated()
        return self._batch_builders.get(name)

    def resolve_backend(self, name: str, requested: str) -> str:
        """Scenario *name*'s execution backend for the sweep choice *requested*.

        Applies the scenario's registered backend aliases (step-path
        scenarios map the generic choices onto ``step-batch`` /
        ``step-scalar``); names without an alias pass through unchanged.
        """
        self._ensure_populated()
        return self._backend_aliases.get(name, {}).get(requested, requested)

    def _ensure_populated(self) -> None:
        """Import the workload modules whose import side-effect registers tasks.

        Lookups may happen in a fresh worker process where nothing has been
        imported yet; this makes name resolution self-contained.  A real
        flag, not an emptiness check: a caller registering its own scenario
        first must not suppress the workload import (it used to leave the
        fault-model namespace empty).
        """
        if not self._populated:
            self._populated = True
            import repro.workloads  # noqa: F401  (registers the scenarios)


#: The process-wide registry the sweep executor resolves names against.
REGISTRY = TaskRegistry()


__all__ = ["TaskRegistry", "REGISTRY"]
