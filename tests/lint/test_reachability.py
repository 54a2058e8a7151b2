"""Reachability ratchet: every definition in ``src/repro`` is used by ``src/repro``.

The scan collects the top-level functions and classes of every module,
plus the methods of those classes other than dunders.  A definition is
*reached* when a ``Name`` or ``Attribute`` node outside its own body names
it anywhere in ``src/repro`` (imports and ``__all__`` strings do not count).
The unreached set must equal :data:`KEPT`, so the test fails both on a new
definition that nothing in the program uses and on a ``KEPT`` entry that
has since been deleted or gained a caller.  Each ``KEPT`` reason is checked
too: a cited test or example must name the definition, a ``protocol`` must
be a ``typing.Protocol``, and any other entry must be named by some test
or example.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[2]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Unreached definitions that stay, each with what reaches it instead.
KEPT: Dict[str, str] = {
    # Table 1 witnesses and the HO test oracle
    "repro.adversaries.classic.PartitionOracle": "claims: tests/claims/test_table1.py witness",
    "repro.adversaries.classic.SilentRoundsOracle": "claims: tests/claims/test_table1.py witness",
    "repro.adversaries.classic.ScriptedOracle": (
        "reference: scripts exact HO sets for the algorithm unit tests"
        " (tests/algorithms/test_one_third_rule.py)"
    ),
    "repro.adversaries.classic.GoodPeriodOracle": "claims: tests/claims/test_table1.py witness",
    "repro.core.machine.HOMachine": (
        "reference: the test oracle of the HO model, run by tests/claims/test_table1.py"
        " and examples/quickstart.py"
    ),
    "repro.core.machine.HOMachine.current_round": "example: examples/quickstart.py",
    "repro.core.machine.HOMachine.run_until_decision": "example: examples/quickstart.py",
    # the paper's static predicates: the reference the monitors are checked against
    "repro.predicates.static.POtr": (
        "claims: tests/claims/test_table1.py; example: examples/quickstart.py"
    ),
    "repro.predicates.static.PRestrOtr": (
        "claims: tests/claims/test_table1.py; example: examples/quickstart.py"
    ),
    "repro.predicates.static.TruePredicate": "reference: Section 3.1's trivial predicate",
    "repro.predicates.static.MajorityEveryRound": "reference: Section 3.1's second example",
    "repro.predicates.static.NonEmptyKernelEveryRound": (
        "reference: the non-empty-kernel class of Section 3.1"
    ),
    "repro.predicates.static.UniformRoundExists": "reference: Section 3.1's first example",
    "repro.predicates.static.PSpaceUniform": (
        "reference: P_su, the oracle of tests/core/test_predicates_properties.py"
    ),
    "repro.predicates.static.PKernel": (
        "reference: P_k, the oracle of tests/core/test_predicates_properties.py"
    ),
    "repro.predicates.static.exists_p2otr": "reference: the paper's P_2otr",
    "repro.predicates.static.exists_p11otr": "reference: the paper's P_1/1otr",
    "repro.predicates.static.find_psu_window": "reference: P_su window search over a collection",
    "repro.predicates.static.find_pk_window": "reference: P_k window search over a collection",
    # Theorem 3-8 runners and the Section 2 comparison
    "repro.workloads.measure.measure_corollary4": "claims: tests/claims/test_good_periods.py",
    "repro.workloads.measure.measure_ratio_noninitial_vs_initial": (
        "claims: tests/claims/test_good_periods.py"
    ),
    "repro.workloads.measure.measure_theorem6": (
        "claims: tests/claims/test_good_periods.py; example: examples/good_period_planner.py"
    ),
    "repro.workloads.measure.measure_theorem7": "claims: tests/claims/test_good_periods.py",
    "repro.workloads.measure.measure_arbitrary_p2otr": "claims: tests/claims/test_theorem8.py",
    "repro.predimpl.bounds.noninitial_to_initial_ratio": (
        "claims: tests/claims/test_good_periods.py; example: examples/good_period_planner.py"
    ),
    "repro.workloads.scenarios.compare_stacks": (
        "claims: tests/claims/test_fd_gap.py; example: examples/failure_detector_comparison.py"
    ),
    "repro.analysis.metrics.algorithm_complexity_summary": (
        "claims: tests/claims/test_fd_gap.py; example: examples/failure_detector_comparison.py"
    ),
    "repro.analysis.taxonomy.failure_detectors_applicable": (
        "claims: tests/claims/test_taxonomy_matrix.py"
    ),
    "repro.analysis.taxonomy.communication_predicates_applicable": (
        "claims: tests/claims/test_taxonomy_matrix.py"
    ),
    # protocols and reference roles of the parity and golden tests
    "repro.rounds.engine.RoundTraceSink": "protocol: what RoundEngine writes records to",
    "repro.runner.sweep.run_one": (
        "reference: one cell's full ScenarioResult, read by tests/workloads/"
    ),
    "repro.engine.rng.SeededRng.replicate": (
        "reference: the replica i == seed + i contract"
        " (tests/batch/test_backend_equivalence.py)"
    ),
    "repro.algorithms.batched.BatchKernel.decode": (
        "reference: decodes kernel rows for the scalar parity of"
        " tests/algorithms/test_batched_kernels.py"
    ),
    "repro.core.types.HOCollection.has_record": (
        "reference: tests/engine/test_replay_and_isolation.py serialises recorded cells"
    ),
    # query accessors that only unit tests read
    "repro.core.types.HOCollection.restrict": "reference: the scope projection of a collection",
    "repro.sysmodel.trace.SystemRunTrace.decision_times": (
        "reference: decision times of a step-level trace"
        " (tests/predimpl/test_arbitrary_good_period.py checks them against the P_2otr bound)"
    ),
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.Module, module: str) -> List[Tuple[str, str, ast.AST]]:
    found = []
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            found.append((f"{module}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                name = getattr(member, "name", "")
                if isinstance(member, _FUNCTIONS) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    found.append((f"{module}.{node.name}.{name}", name, member))
    return found


def unreached_definitions() -> Set[str]:
    """Qualified names of the definitions nothing else in ``src/repro`` names."""
    definitions = []
    uses: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        definitions += [(path, *item) for item in _definitions(tree, _module_name(path))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
    return {
        qualified
        for path, qualified, name, node in definitions
        if all(
            used_in == path and node.lineno <= line <= node.end_lineno
            for used_in, line in uses[name]
        )
    }


def test_unreached_definitions_are_exactly_the_kept_ones():
    unreached = unreached_definitions()
    assert sorted(unreached - KEPT.keys()) == [], "new definitions nothing in src/ uses"
    assert sorted(KEPT.keys() - unreached) == [], "stale KEPT entries"


def test_every_kept_entry_names_its_reason():
    assert [name for name, reason in KEPT.items() if not reason.strip()] == []


#: The kinds of reason a ``KEPT`` clause may give, and the tree a cited path
#: of that kind must lie in (``None``: any of ``tests/`` and ``examples/``).
_KINDS = {"claims": "tests/claims/", "example": "examples/", "reference": None,
          "protocol": None}
_CITED = re.compile(r"(?:tests|examples)/[\w/]*(?:\.py|/)")


@functools.lru_cache(maxsize=None)
def _names_in(path: Path) -> Set[str]:
    """Every identifier a ``Name`` or ``Attribute`` node of *path* names."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    names: Set[str] = set()
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _class_node(qualified: str) -> ast.ClassDef:
    module, name = qualified.rsplit(".", 1)
    path = SRC.parent.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name
    )


@pytest.mark.parametrize("qualified", sorted(KEPT))
def test_kept_reason_holds(qualified):
    reason = KEPT[qualified]
    name = qualified.rsplit(".", 1)[1]
    clauses = [clause.strip() for clause in reason.split(";")]
    for clause in clauses:
        kind = clause.split(":", 1)[0]
        assert kind in _KINDS, f"unknown reason kind {kind!r}"
        cited = _CITED.findall(clause)
        if _KINDS[kind] is not None:
            assert any(path.startswith(_KINDS[kind]) for path in cited), clause
        for path in cited:
            assert (ROOT / path).exists(), f"{path} does not exist"
            assert name in _names_in(ROOT / path), f"{path} does not name {name}"
        if kind == "protocol":
            bases = {ast.unparse(base) for base in _class_node(qualified).bases}
            assert bases & {"Protocol", "typing.Protocol"}, bases
    if not _CITED.findall(reason) and not reason.startswith("protocol:"):
        assert name in _names_in(ROOT / "tests") | _names_in(ROOT / "examples"), (
            f"no test or example names {name}"
        )
