"""Static analysis for the reproduction's determinism contracts.

The whole reproduction rests on one promise: every execution backend
(scalar, batch, super, step-batch) is per-seed bit-identical.  That holds
only under rules no test can conveniently state -- all randomness flows
through :class:`~repro.engine.rng.SeededRng` named sub-streams or counter
streams, numpy enters exactly once via :mod:`repro._optional`, low layers
never import high layers, fallback reasons stay a closed vocabulary.
``repro.lint`` enforces those rules mechanically, before a nondeterminism
bug ever reaches the parity suites: ``REP001``-``REP006`` and ``REP104``,
per-file AST passes over the source text alone
(:data:`repro.lint.determinism.RULES`).  What needs the *live* registries --
scalar/batch dual registrations staying coherent -- is a tier-1 test
beside its subject, not a rule.

Run it with ``python -m repro.lint [paths]``; see :mod:`repro.lint.cli`
for ``--list-rules``.  There is no inline suppression: a module exempt
from a rule by design is outside that rule's scope
(:meth:`~repro.lint.rules.SourceRule.applies_to`), with the reason there.

The package is a *leaf*: nothing in ``repro`` imports it (enforced by its
own REP006), so shipping the linter can never perturb the hot paths it
audits.
"""

from .engine import LintResult, lint_paths, module_name_of
from .findings import Finding
from .rules import FileContext, SourceRule

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "SourceRule",
    "lint_paths",
    "module_name_of",
]
