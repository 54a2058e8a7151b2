"""Tests of the end-to-end comparison scenarios' reporting.

What the scenarios *show* -- who solves consensus under which fault model --
is asserted in ``tests/claims/test_fd_gap.py``.
"""

from __future__ import annotations

from repro.workloads import FAULT_MODELS, run_aguilera, run_chandra_toueg, run_ho_stack


class TestHOStackScenarios:
    def test_fault_classes_are_reported(self):
        assert run_ho_stack("fault-free", n=4, seed=0).extra["fault_class"] == "fault-free"
        assert run_ho_stack("crash-recovery", n=4, seed=0).extra["fault_class"] in (
            "dynamic-transient",
            "static-transient",
        )


class TestFailureDetectorScenarios:
    def test_every_stack_reports_the_fault_class_of_the_shared_environment(self):
        for fault_model in FAULT_MODELS:
            classes = {
                runner(fault_model, n=4, seed=0).extra["fault_class"]
                for runner in (run_ho_stack, run_chandra_toueg, run_aguilera)
            }
            expected = "fault-free" if fault_model == "fault-free" else "dynamic-transient"
            assert classes == {expected}, fault_model

    def test_rows_are_printable(self):
        result = run_chandra_toueg("fault-free", n=3, seed=0)
        assert "chandra-toueg" in result.row()
