"""Tests of the end-to-end comparison scenarios' reporting.

What the scenarios *show* -- who solves consensus under which fault model --
is asserted in ``tests/claims/test_fd_gap.py``.
"""

from __future__ import annotations

from repro.workloads import run_chandra_toueg, run_ho_stack


class TestHOStackScenarios:
    def test_fault_classes_are_reported(self):
        assert run_ho_stack("fault-free", n=4, seed=0).extra["fault_class"] == "fault-free"
        assert run_ho_stack("crash-recovery", n=4, seed=0).extra["fault_class"] in (
            "dynamic-transient",
            "static-transient",
        )


class TestFailureDetectorScenarios:
    def test_rows_are_printable(self):
        result = run_chandra_toueg("fault-free", n=3, seed=0)
        assert "chandra-toueg" in result.row()
