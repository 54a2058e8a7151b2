"""The tier ladder's admission, as one table.

Every array tier (``batch``, ``super``, ``compiled``) admits a
:class:`~repro.rounds.backend.ReplicaBatch` through the same shared rungs
(:func:`repro.batch.backends.admit` / ``BatchKernel.from_cells``) and then
its own, if it has any.  Each row below is one input on one tier: the
rendered reason is pinned (``None`` for the rows a tier admits -- observed
and translation cells on ``super``, which no rung turns away, and
translation cells of any f), rows where two rungs apply pin the
precedence, and the outcomes must equal the reference backend's -- a
declined batch takes a lower tier, never a different answer.

Nothing here forces a hop: every declining row declines for a reason a real
input can produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import pytest

from repro.adversaries import FaultFreeOracle, RandomOmissionOracle
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.batch import BatchBackend, SuperBatchBackend
from repro.compiled import CompiledBackend
from repro.engine.rng import SeededRng
from repro.predimpl.step_backend import BatchStepBackend, StepEnvironment
from repro.predimpl.translation import KernelToUniformTranslation
from repro.rounds.backend import MonitorSpec, ReplicaBatch, ReplicaTask, get_backend
from repro.rounds.bitmask import mask_of
from repro.rounds.fallback import FallbackReason

from .test_backend_equivalence import make_batch
from .test_super_batch import FAMILIES, make_cell


TIERS = {
    "batch": BatchBackend,
    "super": SuperBatchBackend,
    # The cores run under CPython, so the tier engages without numba.
    "compiled": lambda: CompiledBackend(interpreted=True),
    # The production configuration: JIT or nothing.
    "compiled-jit": lambda: CompiledBackend(interpreted=False),
    "step-batch": BatchStepBackend,
}


class Custom(OneThirdRule):
    """An algorithm no batched kernel is registered for."""

    def transition(self, round, process, state, received):
        return state


def cell(
    algorithm=OneThirdRule,
    n=3,
    values=(10, 20, 30),
    oracle=None,
    **kwargs,
) -> ReplicaBatch:
    """A small batch of two tasks.

    *oracle(n, seed)* builds each task's environment; by default every task
    holds one fault-free oracle, as a builder's cell does.
    """
    fault_free = FaultFreeOracle(n)
    oracle = oracle or (lambda n, seed: fault_free)
    tasks = [
        ReplicaTask(seed=seed, oracle=oracle(n, seed), initial_values=list(values))
        for seed in range(2)
    ]
    return ReplicaBatch(n=n, algorithm=algorithm(n), tasks=tasks, max_rounds=8, **kwargs)


def translated(inner=OneThirdRule, f=1, n=4, **kwargs) -> ReplicaBatch:
    """A Theorem 8 translation cell: Algorithm 4 with parameter *f* over *inner*."""
    return cell(
        algorithm=lambda n: KernelToUniformTranslation(inner(n), f),
        n=n, values=tuple(10 * (p + 1) for p in range(n)), **kwargs,
    )


def lossy(**kwargs) -> ReplicaBatch:
    """Seeded omission: its vectorised form keeps the per-replica query loop."""
    return cell(
        oracle=lambda n, seed: RandomOmissionOracle(n, 0.25, rng=SeededRng(seed)), **kwargs
    )


def mixed_step_cell() -> ReplicaBatch:
    """Fault-free down-good step replicas, each with its own delta."""
    return cell(oracle=lambda n, seed: StepEnvironment(delta=2.0 + seed), fingerprints=True)


def monitored_cell() -> ReplicaBatch:
    return make_batch(
        OneThirdRule, "partition-heal", 5, 7, 6, run_full_horizon=True,
        monitor_spec=MonitorSpec(
            predicates=("p_su", "p_k"), pi0_mask=mask_of(range(5)), stop_after_held=3
        ),
    )


def with_values(batch: ReplicaBatch, values) -> ReplicaBatch:
    """*batch* with every replica's initial values replaced by *values*."""
    return replace(
        batch, tasks=[replace(task, initial_values=list(values)) for task in batch.tasks]
    )


MONITORED = MonitorSpec(predicates=("p_su",))
COMPLEX = (1 + 1j, 2 + 2j, 1 + 1j)  # not totally ordered
COLLIDING = (1.0, 1, 2)  # 1.0 == 1, repr differs
COLLIDING_5 = COLLIDING + (3, 4)  # the same collision, for the n = 5 cells

NO_KERNEL = FallbackReason.NO_BATCH_KERNEL.render(algorithm="Custom")
UNENCODABLE = FallbackReason.UNENCODABLE_VALUES.render(
    error="'<' not supported between instances of 'complex' and 'complex'"
)
COLLISION = FallbackReason.VALUE_REPR_COLLISION.render(kept=1.0, value=1)
INNER = FallbackReason.INNER_NOT_ROUND_OBLIVIOUS.render(inner="UniformVoting")


@dataclass(frozen=True)
class Row:
    tier: str
    what: str
    make: Callable[[], ReplicaBatch]
    reason: Optional[str]
    #: pretend this optional dependency is not installed.
    without: Optional[str] = None
    reference: str = "scalar"

    @property
    def id(self) -> str:
        return f"{self.tier}-{self.what}"


def shared_rows(tier: str):
    """The rungs of the one admission, identical on every array tier."""
    return [
        Row(tier, "unregistered", lambda: cell(algorithm=Custom), NO_KERNEL),
        Row(tier, "unencodable", lambda: cell(values=COMPLEX), UNENCODABLE),
        Row(tier, "repr-collision", lambda: cell(values=COLLIDING), COLLISION),
        # precedence inside the shared rungs
        Row(tier, "unregistered+unencodable",
            lambda: cell(algorithm=Custom, values=COMPLEX), NO_KERNEL),
    ]


def observed_rows(
    tier: str,
    monitored: Optional[str],
    fingerprinted: Optional[str],
    fingerprinted_unencodable: str,
):
    """Observed cells: ``compiled`` has a rung for each, ``super`` admits them."""
    return [
        Row(tier, "monitored", lambda: cell(monitor_spec=MONITORED), monitored),
        Row(tier, "fingerprinted", lambda: cell(fingerprints=True), fingerprinted),
        # shared rungs come first, value encoding last
        Row(tier, "unregistered+fingerprinted",
            lambda: cell(algorithm=Custom, fingerprints=True), NO_KERNEL),
        Row(tier, "monitored+fingerprinted",
            lambda: cell(monitor_spec=MONITORED, fingerprints=True), monitored),
        Row(tier, "fingerprinted+unencodable",
            lambda: cell(values=COMPLEX, fingerprints=True), fingerprinted_unencodable),
    ]


ROWS = [
    *shared_rows("batch"),
    *shared_rows("super"),
    *shared_rows("compiled"),
    *observed_rows("super", None, None, UNENCODABLE),
    *observed_rows(
        "compiled",
        FallbackReason.MONITORED_COMPILED_CELL.render(),
        FallbackReason.FINGERPRINTED_COMPILED_CELL.render(),
        FallbackReason.FINGERPRINTED_COMPILED_CELL.render(),
    ),
    Row("super", "translation-kernel", translated, None),
    Row("super", "translation-kernel+monitored",
        lambda: translated(monitor_spec=MONITORED), None),
    *(Row(tier, "uniform-voting-inner", lambda: translated(inner=UniformVoting), INNER)
      for tier in ("batch", "super", "compiled")),
    *(Row(tier, "translation-f2", lambda: translated(f=2, n=7), None)
      for tier in ("batch", "compiled")),
    Row("compiled", "per-replica-oracle", lossy,
        FallbackReason.OPAQUE_COMPILED_ORACLE.render()),
    Row("compiled", "unencodable+per-replica-oracle",
        lambda: lossy(values=COMPLEX), UNENCODABLE),
    Row("compiled-jit", "numba-disabled", cell,
        FallbackReason.NO_NUMBA.render(), without="NUMBA"),
    # Each hop on a cell the tier would otherwise take: batch -> scalar on a
    # stateful-oracle cell and on a monitored one (OneThirdRule's scalar
    # ``min`` needs ordered values, so that one collides instead), compiled
    # -> numpy batch, step-batch -> step-scalar on fault-free down-good
    # replicas; super hops nowhere on a fingerprinted cell with a
    # counter-dual oracle.
    Row("batch", "lossy-cell-unencodable",
        lambda: with_values(
            make_batch(LastVoting, "lossy", 5, 3, 4), [complex(v, v) for v in range(5)]
        ),
        UNENCODABLE),
    Row("batch", "monitored-cell-repr-collision",
        lambda: with_values(monitored_cell(), COLLIDING_5), COLLISION),
    Row("super", "fingerprinted-mobile-cell",
        lambda: make_cell(OneThirdRule, 5, 3, 3, FAMILIES["mobile"], fingerprints=True),
        None),
    Row("compiled", "fingerprinted-lossy-cell",
        lambda: make_batch(LastVoting, "crash+lossy", 5, 3, 4),
        FallbackReason.FINGERPRINTED_COMPILED_CELL.render()),
    Row("step-batch", "mixed-environment-cell", mixed_step_cell,
        FallbackReason.MIXED_STEP_ENVIRONMENTS.render(), reference="step-scalar"),
]


def recorded_reason(backend) -> Optional[str]:
    """The reason of the batch just run (the super backend keeps one per cell)."""
    per_cell = getattr(backend, "last_fallback_reasons", None)
    return per_cell.get(0) if per_cell is not None else backend.last_fallback_reason


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_declined_batch_records_its_reason_and_matches_the_reference(row, monkeypatch):
    if row.without is not None:
        monkeypatch.setattr(f"repro._optional.{row.without}", None)
    backend = TIERS[row.tier]()
    outcomes = backend.run(row.make())
    assert recorded_reason(backend) == row.reason
    assert outcomes == get_backend(row.reference).run(row.make())


def test_monitors_and_stop_policies_survive_the_hop():
    """A monitored batch monitors on *every* path.

    The scalar loop builds its MonitorBank from the same spec, so reports
    and early-stop timing -- functions of the heard-of sets, not of the
    values -- are identical whether or not vectorisation engaged.
    """
    free_backend, declined_backend = BatchBackend(), BatchBackend()
    free = free_backend.run(monitored_cell())
    declined = declined_backend.run(with_values(monitored_cell(), COLLIDING_5))
    assert free_backend.last_fallback_reason is None
    assert declined_backend.last_fallback_reason == COLLISION
    for field in ("predicate_reports", "stopped_early", "rounds_executed"):
        assert [getattr(o, field) for o in declined] == [getattr(o, field) for o in free]
    assert all(o.predicate_reports for o in declined)
    assert all(o.stopped_early for o in declined)
