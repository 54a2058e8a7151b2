"""repro.engine: the discrete-event engine core.

The library's one simulator -- the step-level simulator of the paper's
system model (:mod:`repro.sysmodel`), which the HO stack and the
failure-detector baselines both run on -- is a thin policy layer over this
package:

* :class:`EventQueue` -- the (time, sequence)-ordered future-event list;
* :class:`Clock` / :class:`TraceRecorder` -- simulated time and the
  crash/recovery accounting protocol;
* :class:`SeededRng` -- named, mutually isolated random sub-streams for
  replayable channel / step / fault randomness;
* :class:`FaultSchedule` / :class:`CrashRecoveryInjector` -- the
  crash/recovery fault-injection layer;
* :class:`EngineCore` -- the queue, the clock and the rng plus the run loop.
"""

from .core import EngineCore
from .counter import CounterStream, counter_hash, unit_of
from .faults import (
    CrashRecoveryInjector,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from .queue import EventQueue
from .rng import SeededRng, derive_seed
from .trace import Clock, TraceRecorder

__all__ = [
    "EngineCore",
    "EventQueue",
    "Clock",
    "TraceRecorder",
    "SeededRng",
    "derive_seed",
    "CounterStream",
    "counter_hash",
    "unit_of",
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "CrashRecoveryInjector",
]
