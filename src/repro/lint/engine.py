"""The lint engine: collect files, run rules.

One :func:`lint_paths` call is one lint invocation: every ``*.py`` file
under the given paths is parsed once and handed to each rule of
:data:`~repro.lint.determinism.RULES` whose scope covers it.  Every
finding is actionable and fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .determinism import RULES
from .findings import Finding, sort_findings
from .rules import FileContext


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def module_name_of(path: Path) -> Optional[str]:
    """The dotted ``repro.*`` module a file belongs to, or None.

    Works from the path shape alone (the last ``repro`` directory starts
    the package), so it holds for ``src/repro/...`` in the repo, installed
    trees, and test fixtures that mirror the layout.
    """
    parts = list(path.parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rel = parts[i:]
            if not rel[-1].endswith(".py"):
                return None
            rel[-1] = rel[-1][: -len(".py")]
            if rel[-1] == "__init__":
                rel = rel[:-1]
            return ".".join(rel)
    return None


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``*.py`` file under *paths* (files pass through), sorted."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    seen = set()
    unique = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def display_path(path: Path, root: Optional[Path]) -> str:
    """The path findings are keyed by: root-relative, posix."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(paths: Sequence[str], root: Optional[Path] = None) -> LintResult:
    """Lint every python file under *paths*; returns the full result.

    Findings are keyed by *root*-relative paths when *root* is given.
    """
    result = LintResult()
    kept: List[Finding] = []
    for file_path in iter_python_files(paths):
        result.files += 1
        shown = display_path(file_path, root)
        module = module_name_of(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = FileContext.parse(
                shown, module, source, is_package=file_path.name == "__init__.py"
            )
        except (SyntaxError, UnicodeDecodeError) as exc:
            kept.append(Finding(
                code="REP000", path=shown, line=getattr(exc, "lineno", 1) or 1,
                col=1, message=f"file does not parse: {exc}",
            ))
            continue
        for rule in RULES:
            if rule.applies_to(module):
                kept.extend(rule.check(ctx))

    result.findings = sort_findings(kept)
    return result


__all__ = ["LintResult", "iter_python_files", "lint_paths", "module_name_of"]
