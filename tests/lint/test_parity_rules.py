"""Parity-audit rules (REP101-REP106): real registries audit clean, and
deliberately broken registrations are caught.

The broken fixtures are injected through :class:`ProjectContext`'s
providers -- the real registries are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import pytest

from repro.algorithms.batched import _KERNELS, BatchKernel
from repro.lint.parity import ProjectContext
from repro.lint.rules import audit_rules, get_rule

AUDIT_CODES = ("REP101", "REP102", "REP103", "REP105", "REP106")


@pytest.mark.parametrize("code", AUDIT_CODES)
def test_real_registries_audit_clean(code):
    findings = get_rule(code).audit(ProjectContext())
    assert findings == [], [f.render() for f in findings]


def test_audit_rules_cover_all_audit_codes():
    assert tuple(r.code for r in audit_rules(None)) == AUDIT_CODES


# --- REP101: counter-dual signature handshake ---------------------------- #

class _SignaturelessFamily:
    """A scalar family that forgot the eligibility handshake."""


class _SomeDual:
    pass


class _ProperFamily:
    @classmethod
    def counter_batch_signature(cls):
        return ("proper", 1)


def test_rep101_catches_missing_signature():
    project = ProjectContext(duals={_SignaturelessFamily: _SomeDual})
    findings = get_rule("REP101").audit(project)
    assert len(findings) == 1
    assert "counter_batch_signature" in findings[0].message


def test_rep101_catches_non_class_dual():
    project = ProjectContext(duals={_ProperFamily: "not a class"})
    findings = get_rule("REP101").audit(project)
    assert len(findings) == 1
    assert "not a constructible class" in findings[0].message


# --- REP102: batched kernel registration coherence ------------------------ #

class _UndeclaredKernel(BatchKernel):
    """A kernel that never names its scalar algorithm."""


class _MisflaggedKernel(BatchKernel):
    algorithm_class = _ProperFamily
    super_batchable = "yes"  # not a bool


def test_rep102_catches_non_kernel_registration():
    project = ProjectContext(kernels={_ProperFamily: object})
    findings = get_rule("REP102").audit(project)
    assert len(findings) == 1
    assert "not a BatchKernel subclass" in findings[0].message


def test_rep102_catches_undeclared_algorithm():
    project = ProjectContext(kernels={_ProperFamily: _UndeclaredKernel})
    findings = get_rule("REP102").audit(project)
    assert any("declares no algorithm_class" in f.message for f in findings)


def test_rep102_catches_mismatched_registration():
    # register a real kernel under a *different* real algorithm class
    algorithm_cls, kernel_cls = next(iter(sorted(
        _KERNELS.items(), key=lambda kv: kv[0].__name__)))
    others = [a for a in _KERNELS if a is not algorithm_cls]
    assert others, "fixture needs at least two registered kernels"
    project = ProjectContext(kernels={others[0]: kernel_cls})
    findings = get_rule("REP102").audit(project)
    assert len(findings) == 1
    assert "one of the two is wrong" in findings[0].message


def test_rep102_catches_non_boolean_super_batchable():
    project = ProjectContext(kernels={_ProperFamily: _MisflaggedKernel})
    findings = get_rule("REP102").audit(project)
    assert any("super_batchable" in f.message for f in findings)


# --- REP103: scenario backend resolution ---------------------------------- #

class _BrokenRegistry:
    """Resolves every sweep choice to a backend that does not exist."""

    def batchable_scenario_names(self):
        return ["demo"]

    def resolve_backend(self, name, requested):
        return "no-such-backend"


def _no_backend(name):
    raise KeyError(f"unknown backend {name!r}")


def test_rep103_catches_unresolvable_backends():
    project = ProjectContext(registry=_BrokenRegistry(),
                             get_backend=_no_backend)
    findings = get_rule("REP103").audit(project)
    messages = [f.message for f in findings]
    # one finding per unresolvable sweep choice for 'demo'
    assert sum("no-such-backend" in m for m in messages) == 5


# --- REP106: compiled kernel registration coherence ----------------------- #

@dataclass(frozen=True)
class _CompiledSpec:
    algorithm_class: Any
    batch_kernel_class: Any
    parity_test: str
    runner: Any


class _DualedKernel(BatchKernel):
    algorithm_class = _ProperFamily


def _compiled_project(spec, kernel=_DualedKernel):
    return ProjectContext(
        kernels={_ProperFamily: kernel},
        compiled_kernels={kernel: spec},
    )


def _good_spec(**overrides):
    spec = dict(
        algorithm_class=_ProperFamily,
        batch_kernel_class=_DualedKernel,
        parity_test="tests/compiled/test_compiled_parity.py::test_classic_grid_parity",
        runner=lambda: None,
    )
    spec.update(overrides)
    return _CompiledSpec(**spec)


def test_rep106_accepts_a_coherent_registration():
    findings = get_rule("REP106").audit(_compiled_project(_good_spec()))
    assert findings == [], [f.render() for f in findings]


def test_rep106_catches_mismatched_algorithm_class():
    findings = get_rule("REP106").audit(
        _compiled_project(_good_spec(algorithm_class=_SignaturelessFamily)))
    assert any("algorithm_class" in f.message for f in findings)


def test_rep106_catches_missing_parity_marker():
    findings = get_rule("REP106").audit(
        _compiled_project(_good_spec(parity_test="tests/compiled/test_compiled_parity.py")))
    assert any("parity-test marker" in f.message for f in findings)


def test_rep106_catches_missing_parity_file():
    findings = get_rule("REP106").audit(
        _compiled_project(_good_spec(parity_test="tests/no_such_file.py::test_x")))
    assert any("missing file" in f.message for f in findings)


def test_rep106_catches_unregistered_batch_kernel():
    project = ProjectContext(
        kernels={},  # the compiled dual's kernel is not batch-registered
        compiled_kernels={_DualedKernel: _good_spec()},
    )
    findings = get_rule("REP106").audit(project)
    assert any("not itself a registered batch kernel" in f.message
               for f in findings)


def test_rep106_catches_non_callable_runner():
    findings = get_rule("REP106").audit(
        _compiled_project(_good_spec(runner=None)))
    assert any("callable runner" in f.message for f in findings)


# --- REP105: RunRecord stays a slim picklable wire record ----------------- #

@dataclass
class _FatRecord:
    blob: Dict[str, Any]  # stored as a string under future annotations
    result: Any = None  # compare defaults to True -> violation


@dataclass
class _BloatedRecord:
    name: str
    payload: str = field(default_factory=lambda: "x" * 100000)
    result: Optional[Any] = field(default=None, compare=False)


def test_rep105_catches_fat_annotations_and_comparing_result():
    findings = get_rule("REP105").audit(ProjectContext(run_record=_FatRecord))
    messages = [f.message for f in findings]
    assert any("wire vocabulary" in m for m in messages)
    assert any("compare=False" in m for m in messages)


def test_rep105_catches_fat_pickles():
    findings = get_rule("REP105").audit(
        ProjectContext(run_record=_BloatedRecord))
    assert any("stopped being slim" in f.message for f in findings)


def test_rep105_rejects_non_dataclass():
    findings = get_rule("REP105").audit(ProjectContext(run_record=dict))
    assert len(findings) == 1
    assert "not a dataclass" in findings[0].message
