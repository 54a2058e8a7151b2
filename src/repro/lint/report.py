"""The reporters: the terminal report and the ``--list-rules`` table."""

from __future__ import annotations

from .determinism import RULES
from .engine import LintResult


def render_text(result: LintResult) -> str:
    """The terminal report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding{'s' if len(result.findings) != 1 else ''} "
        f"across {result.files} file{'s' if result.files != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list-rules`` table."""
    width = max(len(r.name) for r in RULES)
    return "\n".join(f"{rule.code}  {rule.name:<{width}}  {rule.summary}" for rule in RULES)


__all__ = ["render_rule_list", "render_text"]
