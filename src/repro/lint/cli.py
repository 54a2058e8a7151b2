"""``python -m repro.lint`` -- the determinism linter.

Exit codes: 0 clean, 1 findings, 2 usage error (argparse convention).

Typical invocations::

    python -m repro.lint src tests              # lint the repo (CI gate)
    python -m repro.lint --list-rules           # what the REP0xx codes mean
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .engine import lint_paths
from .report import render_rule_list, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analysis for the reproduction's determinism contracts "
            "(the REP0xx rules and REP104)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule with its code and rationale, then exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    try:
        result = lint_paths(args.paths, root=Path.cwd())
    except FileNotFoundError as exc:
        parser.error(str(exc))

    print(render_text(result))
    return 0 if result.clean else 1


__all__ = ["main", "build_parser"]
