"""Determinism rules (REP001-REP006, REP104): the bit-reproducibility contracts.

Every execution backend promises per-seed bit-identical outcomes, which
holds only if *all* randomness flows through seeded, named streams and no
hot path consults an ambient source of entropy, wall-clock time, or
interpreter-dependent ordering.  These rules turn those unwritten rules
into lint findings:

* REP001 -- no bare ``random`` module; draw through
  :class:`~repro.engine.rng.SeededRng` named sub-streams or
  :class:`~repro.engine.counter.CounterStream`.  The two modules that own
  a ``random.Random`` by design are outside its scope.
* REP002 -- numba is imported only in :mod:`repro._optional`; everywhere
  else uses ``NUMBA`` / ``have_numba()`` so the numba-free fallback stays
  honest.  numpy is a declared dependency, imported the ordinary way.
* REP003 -- no wall-clock or entropy reads (``time.time``, ``uuid4``,
  ``os.urandom``, ...) in package code; monotonic *duration* timers
  (``perf_counter``) are allowed for diagnostics.
* REP004 -- no ``id()``-based ordering: ``sorted(xs, key=id)`` depends on
  allocation addresses and differs across processes and hosts.
* REP005 -- no direct iteration over set displays/constructors: string
  hash randomisation makes the order vary per process; sort first.
* REP006 -- the import-layering DAG: ``repro.core`` / ``repro.engine`` /
  ``repro.rounds`` sit below the execution and orchestration layers and
  must never import ``repro.batch`` / ``repro.compiled`` /
  ``repro.runner`` / ``repro.workloads`` at module level (function-local
  lazy imports are the sanctioned pattern); nothing outside
  :mod:`repro.lint` imports the linter.
* REP104 -- fallback reasons in the backends' decision functions are
  rendered from the shared :class:`~repro.rounds.fallback.FallbackReason`
  enum, never inline literals: a mis-labelled degradation does not crash,
  it silently reports the wrong tier, so the vocabulary stays closed.

:data:`RULES` is the rule set: the engine runs it, ``--list-rules`` lists it.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .findings import Finding
from .rules import FileContext, SourceRule, dotted_name

#: the modules that own a ``random.Random`` by design, and why.
RANDOM_OWNERS = {
    "repro.engine.rng": "SeededRng IS the sanctioned wrapper around the random module",
    "repro.failure_detectors.detectors": (
        "pinned-seed detector noise: behavioural tests pin outcomes of the "
        "detectors' exact draw sequence, so re-routing it through SeededRng's "
        "hashed sub-seeds would silently re-roll every detector experiment"
    ),
}


class BareRandomRule(SourceRule):
    code = "REP001"
    name = "bare-random"
    summary = (
        "no bare 'random' module in package code; randomness flows through "
        "SeededRng named sub-streams or CounterStream (repro.engine.rng)"
    )

    def applies_to(self, module: Optional[str]) -> bool:
        return super().applies_to(module) and module not in RANDOM_OWNERS

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        guarded = ctx.type_checking_lines()
        for node in ast.walk(ctx.tree):
            if node_lineno(node) in guarded:
                continue
            if isinstance(node, ast.Import):
                if any(alias.name == "random" or alias.name.startswith("random.")
                       for alias in node.names):
                    findings.append(ctx.finding(
                        self.code, node,
                        "bare 'import random': draw through SeededRng named "
                        "sub-streams or CounterStream instead",
                    ))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    findings.append(ctx.finding(
                        self.code, node,
                        "bare 'from random import ...': draw through SeededRng "
                        "named sub-streams or CounterStream instead",
                    ))
        return findings


def _is_numba(module: str) -> bool:
    return module == "numba" or module.startswith("numba.")


class NumbaOutsideOptionalRule(SourceRule):
    code = "REP002"
    name = "numba-via-optional"
    summary = (
        "numba is imported only in repro._optional; use NUMBA and have_numba() "
        "so the numba-free fallback stays honest"
    )

    def applies_to(self, module: Optional[str]) -> bool:
        return super().applies_to(module) and module != "repro._optional"

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        guarded = ctx.type_checking_lines()
        for node in ast.walk(ctx.tree):
            if node_lineno(node) in guarded:
                continue
            offender = None
            if isinstance(node, ast.Import):
                if any(_is_numba(alias.name) for alias in node.names):
                    offender = "'import numba'"
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and _is_numba(node.module or ""):
                    offender = "'from numba import ...'"
            if offender is not None:
                findings.append(ctx.finding(
                    self.code, node,
                    f"direct {offender} outside repro._optional: use "
                    "repro._optional.NUMBA and have_numba()",
                ))
        return findings


#: fully-dotted calls that read wall clocks or ambient entropy.
_NONDETERMINISTIC_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient entropy",
    "uuid.uuid1": "host/time-dependent identifier",
    "uuid.uuid4": "ambient entropy",
}
#: names whose *from-import* alone is flagged (call sites lose the module).
_NONDETERMINISTIC_IMPORTS = {
    ("time", "time"), ("time", "time_ns"),
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}


class WallClockEntropyRule(SourceRule):
    code = "REP003"
    name = "wall-clock-entropy"
    summary = (
        "no wall-clock or entropy reads (time.time, uuid4, os.urandom, "
        "secrets) in package code; perf_counter duration timing is allowed"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is None:
                    continue
                kind = _NONDETERMINISTIC_CALLS.get(chain)
                if kind is None and chain.startswith("secrets."):
                    kind = "ambient entropy"
                if kind is not None:
                    findings.append(ctx.finding(
                        self.code, node,
                        f"{chain}() is a {kind}: outcomes must be a pure "
                        "function of the run seed (use seeded streams, or "
                        "perf_counter for diagnostics-only durations)",
                    ))
            elif isinstance(node, ast.Import):
                if any(alias.name == "secrets" for alias in node.names):
                    findings.append(ctx.finding(
                        self.code, node,
                        "'import secrets' is ambient entropy: outcomes must "
                        "be a pure function of the run seed",
                    ))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                for alias in node.names:
                    if (node.module, alias.name) in _NONDETERMINISTIC_IMPORTS or (
                        node.module == "secrets"
                    ):
                        findings.append(ctx.finding(
                            self.code, node,
                            f"'from {node.module} import {alias.name}' pulls a "
                            "wall-clock/entropy source into a deterministic path",
                        ))
        return findings


class IdOrderingRule(SourceRule):
    code = "REP004"
    name = "id-ordering"
    summary = (
        "no id()-based ordering (sorted(key=id) etc.): allocation addresses "
        "differ across processes and hosts"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = None
            if isinstance(node.func, ast.Name) and node.func.id in ("sorted", "min", "max"):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
                callee = "sort"
            if callee is None:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if _is_id_key(keyword.value):
                    findings.append(ctx.finding(
                        self.code, node,
                        f"{callee}(..., key=id) orders by allocation address, "
                        "which is not stable across processes; order by a "
                        "deterministic attribute instead",
                    ))
        return findings


def _is_id_key(value: ast.expr) -> bool:
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        body = value.body
        return (isinstance(body, ast.Call)
                and isinstance(body.func, ast.Name) and body.func.id == "id")
    return False


class SetIterationRule(SourceRule):
    code = "REP005"
    name = "unordered-set-iteration"
    summary = (
        "no direct iteration over set displays/constructors: hash "
        "randomisation varies the order per process; sort first"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                label = _set_expression_label(it)
                if label is not None:
                    findings.append(ctx.finding(
                        self.code, it,
                        f"iterating a {label} directly: the order depends on "
                        "hashing; wrap it in sorted(...) (or iterate a list)",
                    ))
        return findings


def _set_expression_label(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return f"{node.func.id}(...) result"
    return None


#: source layer prefix -> the layers it must never import at module level.
FORBIDDEN_EDGES = {
    "repro.core": (
        "repro.batch", "repro.compiled", "repro.runner", "repro.workloads",
    ),
    "repro.engine": (
        "repro.batch", "repro.compiled", "repro.runner", "repro.workloads",
    ),
    "repro.rounds": (
        "repro.batch", "repro.compiled", "repro.runner", "repro.workloads",
    ),
}


class ImportLayeringRule(SourceRule):
    code = "REP006"
    name = "import-layering"
    summary = (
        "the layering DAG: core/engine/rounds never import batch/compiled/"
        "runner/workloads at module level, and only repro.lint imports "
        "repro.lint"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        module = ctx.module or ""
        findings: List[Finding] = []
        guarded = ctx.type_checking_lines()
        layer = _layer_of(module)
        forbidden = FORBIDDEN_EDGES.get(layer, ())
        # Relative imports in a package __init__ resolve against the package
        # itself; appending a pseudo-leaf makes the shared arithmetic right.
        resolution_module = f"{module}.__init__" if ctx.is_package else module
        for node in _module_level_statements(ctx.tree):
            if node_lineno(node) in guarded:
                continue
            for target in _import_targets(node, resolution_module):
                target_layer = _layer_of(target)
                if target_layer in forbidden:
                    findings.append(ctx.finding(
                        self.code, node,
                        f"{layer} must not import {target_layer} at module "
                        "level (the layering DAG flows the other way; use a "
                        "function-local lazy import if the edge is optional)",
                    ))
                elif target_layer == "repro.lint" and layer != "repro.lint":
                    findings.append(ctx.finding(
                        self.code, node,
                        "repro.lint is a leaf tool: package code must not "
                        "import it",
                    ))
        return findings


def _layer_of(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


def _module_level_statements(tree: ast.Module):
    """Top-level statements, descending through module-level If/Try only."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            for handler in node.handlers:
                stack.extend(handler.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
        else:
            yield node


def _import_targets(node: ast.stmt, module: str) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            return [node.module] if node.module else []
        # resolve the relative import against the importing module
        parts = module.split(".")
        # a module's package is its parent; each extra level strips one more
        base = parts[: len(parts) - node.level]
        if not base:
            return []
        prefix = ".".join(base)
        return [f"{prefix}.{node.module}" if node.module else prefix]
    return []


def node_lineno(node: ast.AST) -> int:
    return getattr(node, "lineno", -1)


#: the functions whose string returns REP104 polices.
FALLBACK_DECISION_FUNCTIONS = ("admit", "_fallback_reason", "_eligibility")


class FallbackReasonLiteralRule(SourceRule):
    code = "REP104"
    name = "fallback-reason-enum"
    summary = (
        "fallback decisions return, and BatchUnsupported carries, "
        "FallbackReason.render() values, never inline string literals "
        "(the vocabulary must stay closed)"
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and \
                    (dotted_name(node.func) or "").split(".")[-1] == "BatchUnsupported":
                # Its message becomes the recorded reason verbatim.
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    for literal in _string_literals(arg):
                        findings.append(ctx.finding(
                            self.code, literal,
                            "inline reason in BatchUnsupported(): render it from "
                            "repro.rounds.fallback.FallbackReason so the "
                            "vocabulary stays closed and auditable",
                        ))
                continue
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


#: every rule, in code order.
RULES = (
    BareRandomRule(),
    NumbaOutsideOptionalRule(),
    WallClockEntropyRule(),
    IdOrderingRule(),
    SetIterationRule(),
    ImportLayeringRule(),
    FallbackReasonLiteralRule(),
)


__all__ = [
    "BareRandomRule",
    "NumbaOutsideOptionalRule",
    "WallClockEntropyRule",
    "IdOrderingRule",
    "SetIterationRule",
    "ImportLayeringRule",
    "FallbackReasonLiteralRule",
    "FORBIDDEN_EDGES",
    "FALLBACK_DECISION_FUNCTIONS",
    "RANDOM_OWNERS",
    "RULES",
]
