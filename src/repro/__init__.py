"""repro: a reproduction of "Communication Predicates: A High-Level Abstraction
for Coping with Transient and Dynamic Faults" (Hutle & Schiper, DSN 2007).

The package implements the full stack described by the paper:

* :mod:`repro.engine` -- the randomness every simulation draws from: named
  seeded sub-streams and stateless counter-based streams;
* :mod:`repro.core` -- the Heard-Of (HO) model: rounds, algorithms and the
  HO machine;
* :mod:`repro.predicates` / :mod:`repro.adversaries` -- communication
  predicates and the heard-of oracles playing the environment;
* :mod:`repro.algorithms` -- consensus algorithms in the HO model
  (OneThirdRule, LastVoting, UniformVoting);
* :mod:`repro.sysmodel` -- the step-level partially synchronous system model
  with good/bad periods, crash-recovery and message loss: the one simulator,
  with its own clock, event queue and fault injection, that every compared
  stack runs on;
* :mod:`repro.predimpl` -- the predicate-implementation layer
  (Algorithms 2, 3, 4) and the analytic good-period bounds
  (Theorems 3, 5, 6, 7, Corollary 4);
* :mod:`repro.failure_detectors` -- the Chandra-Toueg and Aguilera et al.
  baseline consensus algorithms with their failure detectors, written in
  the upon-event style and run as step programs of the system model;
* :mod:`repro.analysis` -- fault taxonomy, predicate checking and consensus
  property checking over traces;
* :mod:`repro.workloads` -- the scenario builders the sweep runs, and the
  good-period measurements ``tests/claims`` checks against the paper's bounds;
* :mod:`repro.runner` -- the scenario registry and the parallel
  (scenario × seed × fault-model) sweep executor behind
  ``python -m repro.runner``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
