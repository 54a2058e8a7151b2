"""repro: a reproduction of "Communication Predicates: A High-Level Abstraction
for Coping with Transient and Dynamic Faults" (Hutle & Schiper, DSN 2007).

The package implements the full stack described by the paper:

* :mod:`repro.engine` -- the shared discrete-event engine core: the
  (time, sequence)-ordered event queue, the simulated clock, named seeded
  random sub-streams and the crash/recovery fault-injection layer that both
  simulators delegate to;
* :mod:`repro.core` -- the Heard-Of (HO) model: rounds, algorithms and the
  HO machine;
* :mod:`repro.predicates` / :mod:`repro.adversaries` -- communication
  predicates and the heard-of oracles playing the environment;
* :mod:`repro.algorithms` -- consensus algorithms in the HO model
  (OneThirdRule, LastVoting, UniformVoting);
* :mod:`repro.sysmodel` -- the step-level partially synchronous system model
  with good/bad periods, crash-recovery and message loss;
* :mod:`repro.predimpl` -- the predicate-implementation layer
  (Algorithms 2, 3, 4) and the analytic good-period bounds
  (Theorems 3, 5, 6, 7, Corollary 4);
* :mod:`repro.des` -- an event-driven asynchronous simulator used by the
  failure-detector baselines;
* :mod:`repro.failure_detectors` -- the Chandra-Toueg and Aguilera et al.
  baseline consensus algorithms with their failure detectors;
* :mod:`repro.analysis` -- fault taxonomy, predicate checking and consensus
  property checking over traces;
* :mod:`repro.workloads` -- scenario generators and the measurement harness
  used by the benchmarks;
* :mod:`repro.runner` -- the scenario/measurement registry and the parallel
  (scenario × seed × fault-model) sweep executor behind the benchmarks and
  ``python -m repro.runner``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
