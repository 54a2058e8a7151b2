"""The finding record every lint rule emits.

A finding is one violation of one rule at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line human form, ``path:line:col CODE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


def sort_findings(findings) -> list:
    """Stable display order: by path, then line, then code."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


__all__ = ["Finding", "sort_findings"]
