"""Reporters: the human text form and the machine JSON form."""

from __future__ import annotations

from typing import Any, Dict

from .engine import LintResult
from .rules import all_rules

JSON_SCHEMA = "repro-lint/1"


def render_text(result: LintResult) -> str:
    """The terminal report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding{'s' if len(result.findings) != 1 else ''} "
        f"({result.suppressed} suppressed) "
        f"across {result.files} file{'s' if result.files != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> Dict[str, Any]:
    """The machine report (stable schema, consumed by CI and tests)."""
    return {
        "schema": JSON_SCHEMA,
        "findings": [
            {
                "code": f.code,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "line_text": f.line_text,
            }
            for f in result.findings
        ],
        "summary": {
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "files": result.files,
            "clean": result.clean,
        },
    }


def render_rule_list() -> str:
    """The ``--list-rules`` table."""
    rules = all_rules()
    width = max(len(r.name) for r in rules)
    lines = []
    for rule in rules:
        kind = "audit" if not hasattr(rule, "check") else "source"
        lines.append(f"{rule.code}  {rule.name:<{width}}  [{kind}]  {rule.summary}")
    return "\n".join(lines)


__all__ = ["JSON_SCHEMA", "render_json", "render_rule_list", "render_text"]
