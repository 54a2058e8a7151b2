"""Figure 1 / Section 3.3 and Appendix A: one HO algorithm for every benign fault model.

Figure 1 separates the HO algorithmic layer from the predicate
implementation, and Section 3.3 cashes that in: Algorithm 1 runs *unchanged*
under crash-stop and crash-recovery, recoveries being handled entirely below
the communication-predicate interface.  Appendix A / Section 2.1 is the
contrast: with failure detectors the crash-stop algorithm (Chandra-Toueg,
Algorithm 5) loses liveness -- never safety -- under message loss and
crash-recovery, and solving those needs a different algorithm, a different
detector, stable storage and retransmission (Aguilera et al., Algorithm 6).

No closed form here: the claim is the solved / safe / terminated matrix of
the three stacks under the four fault models, plus the structural table.
"""

from __future__ import annotations

import pytest

from repro.analysis import algorithm_complexity_summary
from repro.workloads import FAULT_MODELS, compare_stacks, run_ho_stack


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fault_model", FAULT_MODELS)
def test_same_stack_under_every_fault_model(fault_model, seed):
    """OneThirdRule over Algorithm 2, unchanged, under every benign fault model."""
    result = run_ho_stack(fault_model, n=4, seed=seed)
    print(result.row())
    assert result.safe, result.row()
    assert result.verdict.termination, result.row()


def test_decision_latency_scales_with_system_size():
    results = {n: run_ho_stack("fault-free", n=n, seed=0) for n in (3, 4, 6, 8)}
    for n, result in results.items():
        print(f"n={n:<3} latency={result.metrics.last_decision_time:8.1f} "
              f"messages={result.metrics.messages_sent}")
    latencies = [result.metrics.last_decision_time for result in results.values()]
    assert latencies == sorted(latencies)


@pytest.mark.parametrize("seed", [0, 1])
def test_fd_gap_matrix(seed):
    """Chandra-Toueg vs Aguilera vs the HO stack under identical faults."""
    results = compare_stacks(n=4, seed=seed)
    for result in results:
        print(result.row())
    by_key = {(result.stack, result.fault_model): result for result in results}
    # Everybody handles the crash-stop world.
    for stack in ("ho-stack", "chandra-toueg", "aguilera"):
        assert by_key[(stack, "fault-free")].solved
        assert by_key[(stack, "crash-stop")].solved
    for fault_model in ("lossy", "crash-recovery"):
        # The crash-stop FD algorithm does not terminate under loss / recovery,
        # but never violates safety ...
        assert not by_key[("chandra-toueg", fault_model)].verdict.termination
        assert by_key[("chandra-toueg", fault_model)].safe
        # ... while the crash-recovery FD algorithm and the HO stack solve both.
        assert by_key[("aguilera", fault_model)].solved
        assert by_key[("ho-stack", fault_model)].solved


def test_structural_complexity_table():
    """Section 2.1: what crash-recovery costs a failure-detector algorithm, and not the HO one."""
    summary = algorithm_complexity_summary()
    for item in summary.values():
        print(
            f"{item.name:<38} msg kinds={item.message_kinds:<3} "
            f"state vars={item.state_variables:<3} "
            f"stable storage={item.needs_stable_storage!s:<6} "
            f"retransmission={item.needs_retransmission_task!s:<6} "
            f"detector={item.needs_failure_detector!s:<6} "
            f"new algorithm for crash-recovery={item.distinct_from_crash_stop_variant}"
        )
    assert summary["aguilera"].state_variables > summary["chandra-toueg"].state_variables
    assert not summary["one-third-rule"].distinct_from_crash_stop_variant
