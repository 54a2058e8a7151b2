"""Static analysis for the reproduction's determinism contracts.

The whole reproduction rests on one promise: every execution backend
(scalar, batch, super, step-batch) is per-seed bit-identical.  That holds
only under rules no test can conveniently state -- all randomness flows
through :class:`~repro.engine.rng.SeededRng` named sub-streams or counter
streams, numpy enters exactly once via :mod:`repro._optional`, low layers
never import high layers, scalar/batch dual registrations stay coherent,
fallback reasons stay a closed vocabulary.  ``repro.lint`` enforces those
rules mechanically, before a nondeterminism bug ever reaches the parity
suites:

* determinism rules ``REP001``-``REP007`` -- per-file AST passes
  (:mod:`repro.lint.determinism`);
* parity-audit rules ``REP101``-``REP105`` -- hybrid static +
  live-registry introspection (:mod:`repro.lint.parity`).

Run it with ``python -m repro.lint [paths]``; see
:mod:`repro.lint.cli` for the flags (``--list-rules``, ``--format json``,
``--select``) and :mod:`repro.lint.suppressions` for the
``# repro: noqa[REP0xx] -- reason`` per-line suppression form.

The package is a *leaf*: nothing in ``repro`` imports it (enforced by its
own REP006), so shipping the linter can never perturb the hot paths it
audits.
"""

from .engine import LintResult, lint_paths, module_name_of
from .findings import Finding
from .rules import (
    AuditRule,
    FileContext,
    Rule,
    SourceRule,
    all_rules,
    get_rule,
    register_rule,
    rule_codes,
)

__all__ = [
    "AuditRule",
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "SourceRule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "module_name_of",
    "register_rule",
    "rule_codes",
]
