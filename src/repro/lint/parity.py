"""Parity-audit rules (REP101-REP105): the scalar/batch dual registries.

The backends' bit-identity contract rests on *registration coherence*: a
scalar oracle family and its array dual, a scalar algorithm and its batched
kernel, a scenario and its cell builder must all be wired so that the
vectorised path is a faithful stand-in for the scalar reference.  A
mis-registration does not crash -- it silently drops a cell to the scalar
loop, or worse, runs the wrong dual.  These rules load the *live*
registries (static analysis cannot see a dict built at import time) and
cross-check them; REP104 is the static half, keeping the fallback-reason
vocabulary closed over :class:`~repro.rounds.fallback.FallbackReason`.

* REP101 -- every scalar family registered with a counter-batch dual
  defines ``counter_batch_signature`` (the eligibility handshake the dual
  dispatcher compares) and the dual is constructible.
* REP102 -- every batched kernel registration is coherent: the kernel
  subclasses ``BatchKernel``, names the algorithm class it is the dual of,
  and is registered *under* that class.
* REP103 -- every batchable scenario (one with a CellPlan builder) resolves
  each generic sweep backend choice (auto/batch/compiled/super/scalar) to a
  registered execution backend.
* REP104 -- fallback reasons in the backends' decision functions are
  rendered from the shared ``FallbackReason`` enum, never inline literals.
* REP105 -- ``RunRecord`` stays a slim picklable wire record: every field
  (except the explicitly non-wire ``result``) has a JSON-able annotation,
  and a synthesised instance pickles small.
* REP106 -- every registered compiled kernel is coherent with the chain it
  shadows: it is keyed by a registered ``BatchKernel`` subclass, declares
  that kernel's ``algorithm_class`` as its own dual, and names an existing
  parity-test marker -- a compiled dual cannot be registered without its
  bit-identity evidence.
"""

from __future__ import annotations

import ast
import inspect
import pickle
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .findings import Finding
from .rules import AuditRule, FileContext, SourceRule, register_rule


class ProjectContext:
    """The live registries the audit rules introspect.

    Every provider is injectable so tests can audit deliberately broken
    registrations without touching the real modules; the defaults load the
    real thing lazily (one import per invocation, shared by all rules).
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        duals: Optional[Dict[type, type]] = None,
        kernels: Optional[Dict[type, type]] = None,
        registry: Optional[Any] = None,
        run_record: Optional[type] = None,
        get_backend: Optional[Callable[[str], Any]] = None,
        compiled_kernels: Optional[Dict[type, Any]] = None,
    ) -> None:
        self.root = root or Path.cwd()
        self._duals = duals
        self._kernels = kernels
        self._registry = registry
        self._run_record = run_record
        self._get_backend = get_backend
        self._compiled_kernels = compiled_kernels

    # -- providers (lazy imports of the real registries) ---------------- #

    def duals(self) -> Dict[type, type]:
        if self._duals is None:
            from repro.adversaries.counter_batch import _DUALS

            self._duals = dict(_DUALS)
        return self._duals

    def kernels(self) -> Dict[type, type]:
        if self._kernels is None:
            # Kernel registration is an import side-effect; pull in the
            # modules that register beyond repro.algorithms.batched before
            # snapshotting, or the audit depends on import order.
            import repro.predimpl.batched_translation  # noqa: F401
            from repro.algorithms.batched import _KERNELS

            self._kernels = dict(_KERNELS)
        return self._kernels

    def registry(self) -> Any:
        if self._registry is None:
            from repro.runner.registry import REGISTRY

            self._registry = REGISTRY
        return self._registry

    def run_record(self) -> type:
        if self._run_record is None:
            from repro.runner.sweep import RunRecord

            self._run_record = RunRecord
        return self._run_record

    def get_backend(self, name: str) -> Any:
        if self._get_backend is None:
            from repro.rounds.backend import get_backend

            self._get_backend = get_backend
        return self._get_backend(name)

    def compiled_kernels(self) -> Dict[type, Any]:
        if self._compiled_kernels is None:
            from repro.compiled.kernels import _COMPILED

            self._compiled_kernels = dict(_COMPILED)
        return self._compiled_kernels

    # -- anchoring ------------------------------------------------------ #

    def anchor(self, obj: Any) -> "tuple[str, int]":
        """A (path, line) anchor for findings about a class/registry object."""
        try:
            source = inspect.getsourcefile(obj)
            line = inspect.getsourcelines(obj)[1]
        except (TypeError, OSError):
            return "<registry>", 1
        path = Path(source or "<registry>")
        try:
            path = path.relative_to(self.root)
        except ValueError:
            pass
        return path.as_posix(), line


def _finding(code: str, project: ProjectContext, obj: Any, message: str) -> Finding:
    path, line = project.anchor(obj)
    return Finding(code=code, path=path, line=line, col=1, message=message)


class CounterDualSignatureRule(AuditRule):
    code = "REP101"
    name = "counter-dual-signature"
    summary = (
        "every scalar family with a counter-batch dual defines the "
        "counter_batch_signature eligibility handshake"
    )

    def audit(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for scalar_cls, dual_cls in project.duals().items():
            signature = getattr(scalar_cls, "counter_batch_signature", None)
            if not callable(signature):
                findings.append(_finding(
                    self.code, project, scalar_cls,
                    f"{scalar_cls.__name__} is registered with counter-batch "
                    f"dual {dual_cls.__name__} but defines no callable "
                    "counter_batch_signature(); the dual dispatcher cannot "
                    "check replica eligibility without it",
                ))
            if not (inspect.isclass(dual_cls) and callable(dual_cls)):
                findings.append(_finding(
                    self.code, project, scalar_cls,
                    f"the counter-batch dual registered for "
                    f"{scalar_cls.__name__} is not a constructible class: "
                    f"{dual_cls!r}",
                ))
        return findings


class BatchKernelRegistrationRule(AuditRule):
    code = "REP102"
    name = "batch-kernel-registration"
    summary = (
        "every batched kernel subclasses BatchKernel and is registered "
        "under the algorithm class it declares itself the dual of"
    )

    def audit(self, project: ProjectContext) -> List[Finding]:
        from repro.algorithms.batched import BatchKernel

        findings: List[Finding] = []
        for algorithm_cls, kernel_cls in project.kernels().items():
            if not (inspect.isclass(kernel_cls) and issubclass(kernel_cls, BatchKernel)):
                findings.append(_finding(
                    self.code, project, algorithm_cls,
                    f"the batched kernel registered for "
                    f"{algorithm_cls.__name__} is not a BatchKernel subclass: "
                    f"{kernel_cls!r}",
                ))
                continue
            declared = getattr(kernel_cls, "algorithm_class", None)
            if declared is None:
                findings.append(_finding(
                    self.code, project, kernel_cls,
                    f"{kernel_cls.__name__} declares no algorithm_class; the "
                    "kernel must name the scalar algorithm it is the dual of",
                ))
            elif declared is not algorithm_cls:
                findings.append(_finding(
                    self.code, project, kernel_cls,
                    f"{kernel_cls.__name__} is registered under "
                    f"{algorithm_cls.__name__} but declares itself the dual "
                    f"of {declared.__name__}; one of the two is wrong",
                ))
            if not isinstance(getattr(kernel_cls, "super_batchable", None), bool):
                findings.append(_finding(
                    self.code, project, kernel_cls,
                    f"{kernel_cls.__name__} has no boolean super_batchable "
                    "flag; the super-batch eligibility check needs it",
                ))
        return findings


#: the generic sweep backend choices every batchable scenario must resolve.
SWEEP_BACKEND_CHOICES = ("auto", "batch", "compiled", "super", "scalar")


class ScenarioBackendResolutionRule(AuditRule):
    code = "REP103"
    name = "scenario-backend-resolution"
    summary = (
        "every batchable scenario resolves auto/batch/compiled/super/scalar "
        "to a registered execution backend"
    )

    def audit(self, project: ProjectContext) -> List[Finding]:
        registry = project.registry()
        findings: List[Finding] = []
        for name in registry.batchable_scenario_names():
            for choice in SWEEP_BACKEND_CHOICES:
                resolved = registry.resolve_backend(name, choice)
                try:
                    project.get_backend(resolved)
                except Exception as exc:  # noqa: BLE001 - any failure is the finding
                    findings.append(_finding(
                        self.code, project, type(registry),
                        f"scenario {name!r} resolves sweep backend "
                        f"{choice!r} to {resolved!r}, which is not a "
                        f"registered execution backend ({exc})",
                    ))
        return findings


#: the functions whose string returns REP104 polices.
FALLBACK_DECISION_FUNCTIONS = ("admit", "_fallback_reason", "_eligibility")


class FallbackReasonLiteralRule(SourceRule):
    """The static half of the parity audit: a closed reason vocabulary."""

    code = "REP104"
    name = "fallback-reason-enum"
    summary = (
        "fallback decisions return FallbackReason.render() values, never "
        "inline string literals (the vocabulary must stay closed)"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in FALLBACK_DECISION_FUNCTIONS:
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                for literal in _string_literals(stmt.value):
                    findings.append(ctx.finding(
                        self.code, literal,
                        f"inline fallback reason in {node.name}(): render it "
                        "from repro.rounds.fallback.FallbackReason so the "
                        "vocabulary stays closed and auditable",
                    ))
        return findings


def _string_literals(node: ast.expr) -> List[ast.expr]:
    """String literals in *node*; an f-string counts once, not per part."""
    found: List[ast.expr] = []

    def visit(n: ast.AST) -> None:
        if isinstance(n, ast.JoinedStr):
            found.append(n)
            return  # don't also report the Constant parts inside it
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.append(n)
            return
        for child in ast.iter_child_nodes(n):
            visit(child)

    visit(node)
    return found


#: annotation strings a wire-record field may carry (RunRecord is written
#: with ``from __future__ import annotations``, so field types are strings).
_WIRE_ANNOTATIONS = {
    "str", "int", "bool", "float",
    "Optional[str]", "Optional[int]", "Optional[bool]", "Optional[float]",
    "Optional[Dict[str, Any]]",
    "Tuple[Tuple[str, Any], ...]",
}


class RunRecordWireRule(AuditRule):
    code = "REP105"
    name = "runrecord-slim-picklable"
    summary = (
        "RunRecord stays a slim picklable wire record: JSON-able fields "
        "only, and the non-wire result field never compares or pickles fat"
    )

    #: a synthesised record must pickle below this (the slim-record contract
    #: is ~100s of bytes; the old full-result records were ~1500x larger).
    MAX_PICKLE_BYTES = 4096

    def audit(self, project: ProjectContext) -> List[Finding]:
        record_cls = project.run_record()
        findings: List[Finding] = []
        if not is_dataclass(record_cls):
            return [_finding(
                self.code, project, record_cls,
                f"{record_cls.__name__} is not a dataclass; the wire-record "
                "contract is field-introspectable",
            )]
        sample_kwargs: Dict[str, Any] = {}
        for f in fields(record_cls):
            annotation = f.type if isinstance(f.type, str) else getattr(
                f.type, "__name__", str(f.type)
            )
            if f.name == "result":
                if f.compare:
                    findings.append(_finding(
                        self.code, project, record_cls,
                        "RunRecord.result must be compare=False: the full "
                        "ScenarioResult is not part of the record's identity",
                    ))
                if not (f.default is None or f.default is MISSING):
                    findings.append(_finding(
                        self.code, project, record_cls,
                        "RunRecord.result must default to None so wire "
                        "records are slim unless a caller opts in",
                    ))
                continue
            if annotation not in _WIRE_ANNOTATIONS:
                findings.append(_finding(
                    self.code, project, record_cls,
                    f"RunRecord.{f.name} is annotated {annotation!r}, which "
                    "is not in the JSON-able wire vocabulary "
                    f"({sorted(_WIRE_ANNOTATIONS)})",
                ))
            if f.default is MISSING and f.default_factory is MISSING:  # type: ignore[misc]
                sample_kwargs[f.name] = _sample_value(annotation)
        try:
            record = record_cls(**sample_kwargs)
            blob = pickle.dumps(record)
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            findings.append(_finding(
                self.code, project, record_cls,
                f"a synthesised {record_cls.__name__} failed to pickle: {exc}",
            ))
        else:
            if len(blob) > self.MAX_PICKLE_BYTES:
                findings.append(_finding(
                    self.code, project, record_cls,
                    f"a minimal {record_cls.__name__} pickles to {len(blob)} "
                    f"bytes (> {self.MAX_PICKLE_BYTES}); the wire record has "
                    "stopped being slim",
                ))
        return findings


def _sample_value(annotation: str) -> Any:
    if annotation.startswith("Optional["):
        return None
    return {"str": "x", "int": 0, "bool": False, "float": 0.0}.get(annotation)


class CompiledKernelRegistrationRule(AuditRule):
    code = "REP106"
    name = "compiled-kernel-registration"
    summary = (
        "every compiled kernel is keyed by a registered BatchKernel, "
        "declares that kernel's algorithm_class, and names an existing "
        "parity-test marker"
    )

    def audit(self, project: ProjectContext) -> List[Finding]:
        from repro.algorithms.batched import BatchKernel

        registered_kernels = set(project.kernels().values())
        findings: List[Finding] = []
        for kernel_cls, spec in project.compiled_kernels().items():
            anchor = kernel_cls if inspect.isclass(kernel_cls) else type(spec)
            if not (inspect.isclass(kernel_cls)
                    and issubclass(kernel_cls, BatchKernel)):
                findings.append(_finding(
                    self.code, project, anchor,
                    f"the compiled registry is keyed by {kernel_cls!r}, which "
                    "is not a BatchKernel subclass",
                ))
                continue
            if getattr(spec, "batch_kernel_class", None) is not kernel_cls:
                findings.append(_finding(
                    self.code, project, anchor,
                    f"the compiled dual registered under {kernel_cls.__name__} "
                    f"declares batch_kernel_class="
                    f"{getattr(spec, 'batch_kernel_class', None)!r}; "
                    "one of the two is wrong",
                ))
            if kernel_cls not in registered_kernels:
                findings.append(_finding(
                    self.code, project, anchor,
                    f"{kernel_cls.__name__} has a compiled dual but is not "
                    "itself a registered batch kernel; the compiled tier "
                    "would shadow a kernel the batch tier never runs",
                ))
            declared = getattr(spec, "algorithm_class", None)
            expected = getattr(kernel_cls, "algorithm_class", None)
            if declared is None or declared is not expected:
                findings.append(_finding(
                    self.code, project, anchor,
                    f"the compiled dual of {kernel_cls.__name__} declares "
                    f"algorithm_class={getattr(declared, '__name__', declared)!r} "
                    f"but the kernel's dual is "
                    f"{getattr(expected, '__name__', expected)!r}",
                ))
            if not callable(getattr(spec, "runner", None)):
                findings.append(_finding(
                    self.code, project, anchor,
                    f"the compiled dual of {kernel_cls.__name__} has no "
                    "callable runner",
                ))
            parity_test = getattr(spec, "parity_test", None)
            if not (isinstance(parity_test, str) and "::" in parity_test
                    and parity_test.split("::", 1)[1]):
                findings.append(_finding(
                    self.code, project, anchor,
                    f"the compiled dual of {kernel_cls.__name__} names no "
                    f"parity-test marker (got {parity_test!r}); the contract "
                    "is 'path/to/test_file.py::test_node'",
                ))
            else:
                test_path = project.root / parity_test.split("::", 1)[0]
                if not test_path.is_file():
                    findings.append(_finding(
                        self.code, project, anchor,
                        f"the parity test of {kernel_cls.__name__}'s compiled "
                        f"dual points at a missing file: {parity_test!r}",
                    ))
        return findings


for _rule in (
    CounterDualSignatureRule(),
    BatchKernelRegistrationRule(),
    ScenarioBackendResolutionRule(),
    FallbackReasonLiteralRule(),
    RunRecordWireRule(),
    CompiledKernelRegistrationRule(),
):
    register_rule(_rule)


__all__ = [
    "ProjectContext",
    "CounterDualSignatureRule",
    "BatchKernelRegistrationRule",
    "ScenarioBackendResolutionRule",
    "FallbackReasonLiteralRule",
    "RunRecordWireRule",
    "CompiledKernelRegistrationRule",
    "SWEEP_BACKEND_CHOICES",
    "FALLBACK_DECISION_FUNCTIONS",
]
