"""Failure-detector baselines (Appendix A of the paper).

* :mod:`repro.failure_detectors.program` -- the upon-event process style
  and the step program that runs it on the step-level simulator, under the
  same environment as the HO stack;
* :mod:`repro.failure_detectors.detectors` -- the ◇S and ◇Su oracles,
  stabilising when the environment's good period starts;
* :mod:`repro.failure_detectors.chandra_toueg` -- Algorithm 5: consensus
  with ◇S in the crash-stop model (rotating coordinator);
* :mod:`repro.failure_detectors.aguilera` -- Algorithm 6: consensus with
  ◇Su, stable storage and retransmission in the crash-recovery model.
"""

from .aguilera import ACTMessage, AguileraProcess, build_aguilera_processes
from .chandra_toueg import CTMessage, ChandraTouegProcess, build_chandra_toueg_processes
from .detectors import (
    EventuallyStrongDetector,
    EventuallyStrongRecoveryDetector,
    TrustListOutput,
)
from .program import EventProcess, EventProgram, ProcessContext

__all__ = [
    "EventProcess",
    "EventProgram",
    "ProcessContext",
    "EventuallyStrongDetector",
    "EventuallyStrongRecoveryDetector",
    "TrustListOutput",
    "CTMessage",
    "ChandraTouegProcess",
    "build_chandra_toueg_processes",
    "ACTMessage",
    "AguileraProcess",
    "build_aguilera_processes",
]
