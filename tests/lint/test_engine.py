"""Engine behaviour: module naming, file collection, parse failures."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths, module_name_of

from .conftest import codes_of, run_lint, write_tree


@pytest.mark.parametrize("path, module", [
    ("src/repro/batch/backends.py", "repro.batch.backends"),
    ("src/repro/batch/__init__.py", "repro.batch"),
    ("src/repro/__init__.py", "repro"),
    ("repro/core/types.py", "repro.core.types"),
    ("tests/batch/test_backends.py", None),
    ("somewhere/else.py", None),
])
def test_module_name_of(path, module):
    assert module_name_of(Path(path)) == module


def test_unparseable_file_is_a_rep000_finding(tmp_path):
    result = run_lint(tmp_path, {"repro/broken.py": "def broken(:\n"})
    assert codes_of(result) == ["REP000"]
    assert "does not parse" in result.findings[0].message


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        lint_paths([str(tmp_path / "no-such-dir")])


def test_no_comment_exempts_a_line(tmp_path):
    # A rule's scope is the only exemption: comments carry no meaning.
    result = run_lint(tmp_path, {
        "repro/a.py": "import random  # noqa\n",
        "repro/b.py": "import random  # REP001 is wrong here, and that is fine\n",
    })
    assert codes_of(result) == ["REP001", "REP001"]


def test_explicit_file_paths_and_dedup(tmp_path):
    write_tree(tmp_path, {"repro/mod.py": "import random\n"})
    target = tmp_path / "repro" / "mod.py"
    result = lint_paths([str(target), str(tmp_path)], root=tmp_path)
    assert result.files == 1  # the file is linted once, not twice
    assert codes_of(result) == ["REP001"]


def test_findings_are_sorted_by_location(tmp_path):
    result = run_lint(tmp_path, {
        "repro/b.py": "import random\nfrom time import time\n",
        "repro/a.py": "import numba\n",
    })
    rendered = [(f.path, f.line) for f in result.findings]
    assert rendered == sorted(rendered)


def test_paths_in_findings_are_root_relative(tmp_path):
    result = run_lint(tmp_path, {"repro/mod.py": "import random\n"})
    assert result.findings[0].path == "repro/mod.py"
