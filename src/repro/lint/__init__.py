"""Static analysis for the reproduction's determinism contracts.

The whole reproduction rests on one promise: every execution backend
(scalar, batch, super, step-batch) is per-seed bit-identical.  That holds
only under rules no test can conveniently state -- all randomness flows
through :class:`~repro.engine.rng.SeededRng` named sub-streams or counter
streams, numpy enters exactly once via :mod:`repro._optional`, low layers
never import high layers, fallback reasons stay a closed vocabulary.
``repro.lint`` enforces those rules mechanically, before a nondeterminism
bug ever reaches the parity suites: ``REP001``-``REP007`` and ``REP104``,
per-file AST passes over the source text alone
(:mod:`repro.lint.determinism`).  What needs the *live* registries --
scalar/batch dual registrations staying coherent -- is a tier-1 test
beside its subject, not a rule.

Run it with ``python -m repro.lint [paths]``; see
:mod:`repro.lint.cli` for the flags (``--list-rules``, ``--select``) and
:mod:`repro.lint.suppressions` for the
``# repro: noqa[REP0xx] -- reason`` per-line suppression form.

The package is a *leaf*: nothing in ``repro`` imports it (enforced by its
own REP006), so shipping the linter can never perturb the hot paths it
audits.
"""

from .engine import LintResult, lint_paths, module_name_of
from .findings import Finding
from .rules import (
    FileContext,
    SourceRule,
    all_rules,
    get_rule,
    register_rule,
    rule_codes,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "SourceRule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "module_name_of",
    "register_rule",
    "rule_codes",
]
