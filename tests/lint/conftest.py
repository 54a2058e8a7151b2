"""Shared helpers for the ``repro.lint`` test suite.

Rule-level tests parse snippets straight into a
:class:`~repro.lint.rules.FileContext`; engine-level tests write little
file trees under ``tmp_path`` and run :func:`~repro.lint.engine.lint_paths`
over them.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.lint.determinism import RULES
from repro.lint.engine import LintResult, lint_paths
from repro.lint.findings import Finding
from repro.lint.rules import FileContext, SourceRule


def rule(code: str) -> SourceRule:
    """The rule with *code*."""
    (found,) = [r for r in RULES if r.code == code]
    return found


def check_rule(code: str, source: str, module: str = "repro.fake",
               path: str = "", is_package: bool = False) -> List[Finding]:
    """Run one source rule over a dedented snippet; returns its findings."""
    if not path:
        tail = "/__init__.py" if is_package else ".py"
        path = "src/" + module.replace(".", "/") + tail
    ctx = FileContext.parse(path, module, textwrap.dedent(source),
                            is_package=is_package)
    return rule(code).check(ctx)


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` under *root* (dedented)."""
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def run_lint(root: Path, files: Dict[str, str], **kwargs) -> LintResult:
    """Write *files* under *root* and lint the tree."""
    write_tree(root, files)
    kwargs.setdefault("root", root)
    return lint_paths([str(root)], **kwargs)


def codes_of(result: LintResult) -> List[str]:
    return [finding.code for finding in result.findings]
