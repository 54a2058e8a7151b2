"""The ``python -m repro.lint`` CLI: flags, exit codes, repo round-trip."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main

from .conftest import write_tree

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_TREE = {"repro/mod.py": "import random\nfrom time import time\n"}
CLEAN_TREE = {"repro/mod.py": "VALUE = 1\n"}


def test_list_rules_mentions_every_code(capsys):
    assert main(["--list-rules"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP104",
    ]


def test_exit_one_on_findings(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, BAD_TREE)
    monkeypatch.chdir(tmp_path)
    assert main(["repro"]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "REP003" in out
    assert "2 findings" in out


def test_exit_zero_on_clean_tree(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, CLEAN_TREE)
    monkeypatch.chdir(tmp_path)
    assert main(["repro"]) == 0
    assert "0 findings" in capsys.readouterr().out


def _lint_repo(cwd, *paths):
    """Lint *paths* in a subprocess started in *cwd*; the summary line of a clean run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", *paths],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def summary_from_repo_root():
    return _lint_repo(REPO_ROOT, "src", "tests")


def test_repo_lints_clean(summary_from_repo_root):
    """The acceptance invocation: the repo itself carries zero findings."""
    assert summary_from_repo_root.startswith("0 findings across ")


def test_the_answer_does_not_depend_on_the_working_directory(
    summary_from_repo_root, tmp_path
):
    elsewhere = _lint_repo(tmp_path, str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"))
    assert elsewhere == summary_from_repo_root
