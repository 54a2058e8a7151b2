#!/usr/bin/env python3
"""Failure detectors vs communication predicates under identical fault injections.

Reproduces, as a runnable demo, the argument of Sections 1-2 and Appendix A:

* the Chandra-Toueg ◇S algorithm (crash-stop, reliable links),
* the Aguilera et al. ◇Su algorithm (crash-recovery, lossy links, stable
  storage, retransmission), and
* the HO stack (OneThirdRule over the Algorithm 2 predicate implementation)

are each run under four fault models: fault-free, crash-stop, crash-recovery
and lossy links.  All three run on the same step-level simulator, under the
same environment (a bad period that loses messages, then a good period) and
seed, so each row's fault class -- the Section 2.2 taxonomy, computed from
the run -- is the same for all three stacks.  Every faulty scenario is
dynamic-transient: its bad period loses messages the crash-stop
Chandra-Toueg algorithm waits for, so it may block (never unsafe), and
handling those faults required a visibly more complex, different algorithm
-- while the single HO stack covers everything.

Run with:  python examples/failure_detector_comparison.py
"""

from __future__ import annotations

from repro.analysis import algorithm_complexity_summary
from repro.workloads import FAULT_MODELS, compare_stacks


def main() -> None:
    print("Running every stack under every fault model (this takes a few seconds)...\n")
    results = compare_stacks(fault_models=FAULT_MODELS, n=4, seed=0)

    print(f"{'stack':<16} {'fault model':<16} {'fault class':<19} {'safe':<6} "
          f"{'terminated':<11} {'latency':<9} messages")
    for result in results:
        latency = (
            "-" if result.metrics.last_decision_time is None
            else f"{result.metrics.last_decision_time:.1f}"
        )
        print(
            f"{result.stack:<16} {result.fault_model:<16} "
            f"{result.extra['fault_class']:<19} "
            f"{'yes' if result.safe else 'NO':<6} "
            f"{'yes' if result.verdict.termination else 'no':<11} "
            f"{latency:<9} {result.metrics.messages_sent}"
        )

    print("\nStructural complexity of the algorithms (Section 2.1 made quantitative):\n")
    for item in algorithm_complexity_summary().values():
        print(f"  {item.name}")
        print(f"    fault model handled : {item.fault_model}")
        print(f"    message kinds       : {item.message_kinds}")
        print(f"    state variables     : {item.state_variables}")
        print(f"    stable storage      : {item.needs_stable_storage}")
        print(f"    retransmission task : {item.needs_retransmission_task}")
        print(f"    failure detector    : {item.needs_failure_detector}")
        print(
            "    needs a different algorithm for crash-recovery: "
            f"{item.distinct_from_crash_stop_variant}"
        )
        print()

    print("Chandra-Toueg assumes reliable links: it is guaranteed to terminate only")
    print("in the fault-free and static-permanent classes, and every faulty run above")
    print("is dynamic-transient, because its bad period loses messages.\n")
    print("Take-away: the failure-detector approach needed a new detector and a")
    print("substantially more complex algorithm to move from crash-stop to")
    print("crash-recovery, whereas the HO algorithmic layer is reused verbatim --")
    print("only the predicate implementation underneath deals with recoveries.")


if __name__ == "__main__":
    main()
