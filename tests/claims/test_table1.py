"""Table 1 and Theorems 1-2: OneThirdRule under the communication predicates.

Claims checked, over seven hand-built heard-of environments (n = 6, 40
rounds) from benign to adversarial:

* safety (integrity + agreement) holds under *every* environment -- it
  needs no predicate (Theorem 1's proof argument);
* termination holds whenever ``P_otr`` holds on the recorded collection
  (``P_restr_otr`` gives it to Pi0 only);
* a permanent partition satisfies neither predicate and never terminates:
  violating the predicate may cost liveness, never safety.

The same seven environments also run as one packed row space on the
``super`` backend, and the Table 1 / Section 4.2 predicates are shown to be
checkable online in memory flat in the round count.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.adversaries import (
    FaultFreeOracle,
    GoodPeriodOracle,
    PartitionOracle,
    RandomOmissionOracle,
    SilentRoundsOracle,
    StaticCrashOracle,
)
from repro.algorithms import LastVoting, OneThirdRule, UniformVoting
from repro.analysis import check_consensus
from repro.core import HOMachine
from repro.core.types import HOCollection
from repro.predicates import (
    MONITOR_NAMES,
    MonitorBank,
    P2Otr,
    P11Otr,
    POtr,
    PRestrOtr,
    otr_threshold,
    pk_holds,
    psu_holds,
)
from repro.rounds.backend import MonitorSpec, ReplicaBatch, ReplicaTask, get_backend

N = 6
ROUNDS = 40
VALUES = [30, 10, 20, 40, 60, 50]

#: name -> builder of a fresh heard-of oracle (oracles are stateful).
ENVIRONMENTS = {
    "fault-free": lambda: FaultFreeOracle(N),
    "silent-prefix": lambda: SilentRoundsOracle(N, silent_rounds=range(1, 6)),
    "minority-crash": lambda: StaticCrashOracle(N, {N - 1: 3}),
    "good-period-pi0": lambda: GoodPeriodOracle(
        N, pi0=frozenset(range(otr_threshold(N))), good_from=8, good_to=20, seed=1
    ),
    "light-loss": lambda: RandomOmissionOracle(N, loss_probability=0.1, seed=2),
    "heavy-loss": lambda: RandomOmissionOracle(N, loss_probability=0.7, seed=3),
    "permanent-partition": lambda: PartitionOracle(N, blocks=[[0, 1, 2], [3, 4, 5]]),
}


def run_machine(algorithm, oracle):
    machine = HOMachine(algorithm, oracle, VALUES)
    machine.run(ROUNDS)
    return machine.trace, check_consensus(machine.trace, VALUES)


@pytest.mark.parametrize("name", ENVIRONMENTS)
def test_table1_predicate_matrix(name):
    """Which environments let OneThirdRule decide: Table 1's role."""
    trace, verdict = run_machine(OneThirdRule(N), ENVIRONMENTS[name]())
    p_otr = POtr().holds(trace.ho_collection)
    p_restr_otr = PRestrOtr().holds(trace.ho_collection)
    print(
        f"{name:<22} P_otr={p_otr!s:<6} P_restr_otr={p_restr_otr!s:<6} "
        f"safe={verdict.safe!s:<6} terminated={verdict.termination!s:<6} "
        f"decided={len(verdict.decisions)}/{N}"
    )
    assert verdict.safe
    if p_otr:
        assert verdict.termination
    if name == "permanent-partition":
        assert not p_restr_otr
        assert not verdict.termination


def test_table1_matrix_crosses_the_packed_row_space():
    """The seven environments as seven one-replica cells of one super-batch run."""
    batches = [
        ReplicaBatch(
            n=N,
            algorithm=OneThirdRule(N),
            tasks=[ReplicaTask(0, build(), VALUES)],
            max_rounds=ROUNDS,
            run_full_horizon=True,
            monitor_spec=MonitorSpec(predicates=("p_otr",)),
        )
        for build in ENVIRONMENTS.values()
    ]
    backend = get_backend("super")
    results = backend.run_batches(batches)
    assert backend.last_fallback_reasons == {}
    for (name, build), (outcome,) in zip(ENVIRONMENTS.items(), results):
        trace, _ = run_machine(OneThirdRule(N), build())
        assert outcome.decisions == trace.decisions(), name
        assert outcome.decision_rounds == trace.decision_rounds(), name
        p_otr = outcome.predicate_reports["p_otr"]["holds"]
        assert p_otr == POtr().holds(trace.ho_collection), name
        if p_otr:
            assert len(outcome.decisions) == N, name
        if name == "permanent-partition":
            assert len(outcome.decisions) < N


@pytest.mark.parametrize("algorithm_class", [LastVoting, UniformVoting], ids=lambda c: c.name)
@pytest.mark.parametrize("environment", ["fault-free", "light-loss"])
def test_table1_other_algorithms_same_environments(algorithm_class, environment):
    """The model is not OneThirdRule-specific: safe under loss, live when fault free."""
    oracle = (
        FaultFreeOracle(N)
        if environment == "fault-free"
        else RandomOmissionOracle(N, loss_probability=0.1, seed=4)
    )
    _, verdict = run_machine(algorithm_class(N), oracle)
    print(f"{algorithm_class.name:<16} {environment:<12} safe={verdict.safe} "
          f"terminated={verdict.termination}")
    assert verdict.safe
    if environment == "fault-free":
        assert verdict.termination


# --------------------------------------------------------------------------- #
# the predicates are checkable online: O(n) monitor state, not O(rounds * n)
# --------------------------------------------------------------------------- #


def fill_round_masks(n, round, heal_from, out):
    """A rotating 3-block partition healing into fault-free rounds.

    Stateless in the round number (no oracle memo growing with the run), so
    tracemalloc sees the memory behaviour of the two predicate paths only.
    """
    if round >= heal_from:
        out[:] = [(1 << n) - 1] * n
        return
    shift = (round - 1) // 5 * 7
    blocks = [0, 0, 0]
    for q in range(n):
        blocks[(q + shift) % 3] |= 1 << q
    for p in range(n):
        out[p] = blocks[(p + shift) % 3]


def run_monitored(n, rounds):
    """Stream the environment round by round through all six monitors."""
    bank = MonitorBank(n, MONITOR_NAMES)
    masks = [0] * n
    for round in range(1, rounds + 1):
        fill_round_masks(n, round, rounds // 2, masks)
        bank.observe_round(round, masks)
    return bank.reports()


def run_whole_collection(n, rounds):
    """Record the full collection, then run the six whole-collection checkers."""
    collection = HOCollection(n)
    masks = [0] * n
    for round in range(1, rounds + 1):
        fill_round_masks(n, round, rounds // 2, masks)
        for p in range(n):
            collection.record_mask(p, round, masks[p])
    pi0 = frozenset(range(n))
    return [
        POtr().holds(collection),
        PRestrOtr().holds(collection),
        psu_holds(collection, pi0, 1, rounds),
        pk_holds(collection, pi0, 1, rounds),
        P2Otr(pi0).holds(collection),
        P11Otr(pi0).holds(collection),
    ]


def peak_bytes(run, n, rounds):
    tracemalloc.start()
    run(n, rounds)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_monitors_hold_flat_memory_where_the_checkers_grow():
    """The bank's state is O(n); the checkers need the O(rounds * n) collection."""
    n, short, long = 16, 150, 600
    # Each path runs once untraced first: what a code path allocates once per
    # process (numpy's lazily initialised state under the array monitors) is
    # not per-round growth, and would otherwise land in whichever run is
    # traced first.
    for run in (run_monitored, run_whole_collection):
        run(n, short)
    monitored, whole = (
        peak_bytes(run, n, long) / peak_bytes(run, n, short)
        for run in (run_monitored, run_whole_collection)
    )
    print(f"peak-memory growth {short} -> {long} rounds at n={n}: "
          f"monitored {monitored:.2f}x, whole collection {whole:.2f}x")
    assert monitored < 2.0
    assert whole > 2.0
