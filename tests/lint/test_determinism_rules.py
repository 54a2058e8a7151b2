"""Fixture tests for the determinism rules (REP001-REP006, REP104).

Each violation *fires* alone and lands on its line; each rule's sanctioned
patterns, and the modules its scope leaves out, stay silent.
"""

from __future__ import annotations

import pytest

from .conftest import check_rule, codes_of, rule, run_lint

#: (code, fixture path, source, 1-based line the finding lands on).
VIOLATIONS = [
    ("REP001", "repro/fake.py", "import random\n", 1),
    ("REP001", "repro/fake.py", "from random import Random\n", 1),
    ("REP002", "repro/fake.py", "import numpy\n", 1),
    ("REP002", "repro/fake.py", "from numpy import asarray\n", 1),
    ("REP003", "repro/fake.py",
     "import time\n\n\ndef stamp():\n    return time.time()\n", 5),
    ("REP003", "repro/fake.py", "from time import time\n", 1),
    ("REP003", "repro/fake.py", "import secrets\n", 1),
    ("REP003", "repro/fake.py",
     "import uuid\n\n\ndef tag():\n    return uuid.uuid4()\n", 5),
    ("REP004", "repro/fake.py",
     "def order(xs):\n    return sorted(xs, key=id)\n", 2),
    ("REP004", "repro/fake.py",
     "def order(xs):\n    xs.sort(key=lambda x: id(x))\n", 2),
    ("REP005", "repro/fake.py",
     "def walk():\n    return [x for x in {1, 2, 3}]\n", 2),
    ("REP005", "repro/fake.py",
     "def walk(xs):\n    for x in set(xs):\n        print(x)\n", 2),
    ("REP006", "repro/core/fake.py", "import repro.batch\n", 1),
    ("REP006", "repro/engine/fake.py", "from repro.runner import sweep\n", 1),
    ("REP104", "repro/batch/fake.py",
     "def _fallback_reason(cell):\n    return 'numpy went missing'\n", 2),
    ("REP104", "repro/batch/fake.py",
     "def admit(batch):\n    return 'numpy went missing', None\n", 2),
    ("REP104", "repro/predimpl/fake.py",
     "def _cell_parameters(batch):\n    raise BatchUnsupported('x')\n", 2),
    ("REP104", "repro/algorithms/fake.py",
     "def encode(values):\n    raise batched.BatchUnsupported(f'bad {values}')\n", 2),
]

IDS = [f"{code}-{i}" for i, (code, _, _, _) in enumerate(VIOLATIONS)]


@pytest.mark.parametrize("code, rel, source, line", VIOLATIONS, ids=IDS)
def test_violation_fires(tmp_path, code, rel, source, line):
    result = run_lint(tmp_path, {rel: source})
    assert codes_of(result) == [code]
    assert result.findings[0].line == line
    assert result.findings[0].path == rel


#: Inline comments that once exempted a line (both spellings, in the compact
#: form the old parser also took); a rule's scope is the only exemption now,
#: so neither may silence a finding.
COMMENTS = {
    "house": "#repro:noqa[{code}] -- fixture demo",
    "ruff": "#noqa:{code}",
}


@pytest.mark.parametrize("form", sorted(COMMENTS))
@pytest.mark.parametrize("code, rel, source, line", VIOLATIONS, ids=IDS)
def test_violation_fires_through_a_comment(tmp_path, code, rel, source, line, form):
    lines = source.splitlines()
    lines[line - 1] += "  " + COMMENTS[form].format(code=code)
    result = run_lint(tmp_path, {rel: "\n".join(lines) + "\n"})
    assert codes_of(result) == [code]
    assert result.findings[0].line == line


def test_comment_on_a_clean_line_is_no_finding(tmp_path):
    # No hygiene pass: a stale or bogus exemption comment is just a comment.
    result = run_lint(tmp_path, {
        "repro/a.py": "x = 1  #repro:noqa[REP001] -- nothing here\n",
        "helpers/b.py": "y = 2  #repro:noqa[REP999]\n",
    })
    assert result.clean, [f.render() for f in result.findings]


# --- per-rule negatives: the sanctioned patterns stay silent ------------- #

def test_rep001_type_checking_guard_is_sanctioned():
    source = """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            import random
    """
    assert check_rule("REP001", source) == []


def test_rep001_ignores_non_repro_modules():
    ctx_findings = check_rule("REP001", "import random\n", module="repro.fake")
    assert ctx_findings  # sanity: same snippet fires inside the package
    assert not rule("REP001").applies_to(None)
    assert not rule("REP001").applies_to("tests.something")


def test_rep001_random_owning_modules_are_exempt():
    rep001 = rule("REP001")
    assert not rep001.applies_to("repro.engine.rng")
    assert not rep001.applies_to("repro.failure_detectors.detectors")
    assert rep001.applies_to("repro.engine.counter")
    assert rep001.applies_to("repro.failure_detectors.chandra_toueg")


def test_rep002_optional_module_is_exempt():
    rep002 = rule("REP002")
    assert not rep002.applies_to("repro._optional")
    assert rep002.applies_to("repro.batch.backends")


def test_rep003_perf_counter_is_allowed():
    source = """\
        import time


        def took():
            return time.perf_counter()
    """
    assert check_rule("REP003", source) == []


def test_rep004_deterministic_keys_are_fine():
    assert check_rule(
        "REP004", "def order(xs):\n    return sorted(xs, key=str)\n"
    ) == []


def test_rep005_sorted_set_is_fine():
    assert check_rule(
        "REP005", "def walk(xs):\n    return [x for x in sorted(set(xs))]\n"
    ) == []


def test_rep006_function_local_import_is_sanctioned():
    source = """\
        def lazy():
            from repro.batch import backends

            return backends
    """
    assert check_rule("REP006", source, module="repro.rounds.fake") == []


def test_rep006_relative_import_in_package_init_resolves_right():
    # ``from .backend import x`` inside repro/rounds/__init__.py targets
    # repro.rounds.backend -- same layer, not a violation.
    assert check_rule(
        "REP006", "from .backend import get_backend\n",
        module="repro.rounds", is_package=True,
    ) == []


def test_rep006_relative_import_crossing_layers_is_caught():
    findings = check_rule(
        "REP006", "from ..batch import backends\n",
        module="repro.rounds.fake",
    )
    assert len(findings) == 1
    assert "repro.batch" in findings[0].message


def test_rep006_lint_is_a_leaf():
    findings = check_rule(
        "REP006", "import repro.lint\n", module="repro.runner.fake"
    )
    assert len(findings) == 1
    assert "leaf" in findings[0].message
    # ...but the linter may of course import itself.
    assert check_rule(
        "REP006", "from repro.lint import rules\n", module="repro.lint.cli"
    ) == []


def test_rep104_rendered_enum_values_are_fine():
    source = """\
        from repro.rounds.fallback import FallbackReason


        def _fallback_reason(cell):
            if cell is None:
                return FallbackReason.NO_NUMPY.render()
            return None
    """
    assert check_rule("REP104", source, module="repro.batch.fake") == []


def test_rep104_fstring_counts_once():
    source = """\
        def _eligibility(kernel):
            return (False, f"no kernel for {kernel}")
    """
    findings = check_rule("REP104", source, module="repro.batch.fake")
    assert len(findings) == 1


def test_rep104_batch_unsupported_may_carry_a_rendered_reason():
    source = """\
        from repro.rounds.fallback import FallbackReason


        def _cell_parameters(batch):
            raise BatchUnsupported(FallbackReason.UNENCODABLE_VALUES.render(error=batch))
    """
    assert check_rule("REP104", source, module="repro.predimpl.fake") == []


def test_rep104_other_functions_may_build_strings():
    source = """\
        def describe(cell):
            return f"cell {cell}"
    """
    assert check_rule("REP104", source, module="repro.batch.fake") == []
