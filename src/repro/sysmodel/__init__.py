"""The step-based system model of Section 4.1.

A deterministic discrete-event simulator of the paper's system model:
processes execute atomic send / receive steps, the network takes make-ready
steps, time is a real-valued global clock not accessible to processes, and
the system alternates between good periods (where the ``pi0-sync`` synchrony
property holds for a subset ``pi0``) and bad periods (arbitrary benign
behaviour: crash/recovery, omissions, loss, asynchrony).
"""

from .faults import BadPeriodProcessBehavior, FaultEvent, FaultKind, FaultSchedule
from .network import BadPeriodNetwork, Envelope, Network
from .params import SynchronyParams
from .periods import GoodPeriod, GoodPeriodKind, PeriodSchedule
from .process import (
    ProcessRuntime,
    ProcessStats,
    ReceiveStep,
    SendStep,
    StableStorage,
    StepAction,
    StepProgram,
    StepResult,
)
from .simulator import SystemSimulator
from .trace import DecisionRecord, SystemRunTrace

__all__ = [
    "SynchronyParams",
    "GoodPeriodKind",
    "GoodPeriod",
    "PeriodSchedule",
    "Envelope",
    "BadPeriodNetwork",
    "Network",
    "SendStep",
    "ReceiveStep",
    "StepAction",
    "StepResult",
    "StepProgram",
    "StableStorage",
    "ProcessRuntime",
    "ProcessStats",
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "BadPeriodProcessBehavior",
    "SystemSimulator",
    "SystemRunTrace",
    "DecisionRecord",
]
