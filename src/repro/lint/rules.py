"""The rule framework: the rule base class and the per-file context.

A rule is a :class:`SourceRule` -- a per-file AST pass.  The engine parses
each scanned file once into a :class:`FileContext` and hands it to every
rule whose :meth:`SourceRule.applies_to` accepts the file's *module name*
(``repro.batch.backends`` for ``src/repro/batch/backends.py``; ``None``
for files outside the package, e.g. tests).  Determinism rules scope
themselves to ``repro.*`` -- the hot paths whose bit-reproducibility the
backends promise -- so test code may keep its ad-hoc randomness.

A rule's scope is the only way code is exempt from it: a module that
breaks a contract by design is left out by the rule's ``applies_to``,
with the reason next to it, never by a comment at the offending line.

A contract that needs ``import repro`` -- a registration the AST cannot
see -- is not a rule: it is a tier-1 test beside its subject.

Every rule has a stable code (``REP001`` ...); codes are never reused
(``REP007``, ``REP101``-``REP103``, ``REP105`` and ``REP106`` are retired).
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import List, Optional, Set

from .findings import Finding


@dataclass
class FileContext:
    """Everything a source rule may look at for one file."""

    path: str
    module: Optional[str]
    source: str
    tree: ast.Module
    #: whether this file is a package ``__init__`` (relative imports then
    #: resolve against the module itself, not its parent).
    is_package: bool = False

    @classmethod
    def parse(
        cls, path: str, module: Optional[str], source: str, is_package: bool = False
    ) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(path=path, module=module, source=source, tree=tree,
                   is_package=is_package)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(code=code, path=self.path, line=line, col=col, message=message)

    def type_checking_lines(self) -> Set[int]:
        """The line numbers inside ``if TYPE_CHECKING:`` blocks.

        Imports under the guard exist only for annotations -- they never
        execute, so they cannot introduce runtime nondeterminism; the
        determinism rules skip them (it is the sanctioned way to keep a
        ``random.Random`` *type* without a runtime ``random`` dependency).
        """
        guarded: Set[int] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.If) and _is_type_checking_test(node.test):
                for stmt in node.body:
                    guarded.update(range(stmt.lineno, _end_line(stmt) + 1))
        return guarded


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _end_line(node: ast.AST) -> int:
    return getattr(node, "end_lineno", getattr(node, "lineno", 1))


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SourceRule(abc.ABC):
    """A per-file AST pass with a stable ``REP0xx`` code."""

    #: stable code (never reuse one).
    code: str = ""
    #: short kebab-case name for listings.
    name: str = ""
    #: one-line rationale shown by ``--list-rules``.
    summary: str = ""

    def applies_to(self, module: Optional[str]) -> bool:
        """Default scope: the ``repro`` package (the deterministic hot paths)."""
        return module is not None and (module == "repro" or module.startswith("repro."))

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> List[Finding]:
        """The findings of this rule for one parsed file."""


__all__ = ["FileContext", "SourceRule", "dotted_name"]
