"""E1 -- Table 1 and Theorems 1-2: OneThirdRule under the Table 1 predicates.

For every predicate of Table 1 (plus deliberately-too-weak environments) the
benchmark runs OneThirdRule over heard-of collections produced by matching
oracles and reports, per environment: whether the predicate held, whether
safety held, and whether termination was reached.  The paper's claims:

* safety (integrity + agreement) holds under *every* environment;
* termination holds whenever ``P_otr`` (all processes) or ``P_restr_otr``
  (the Pi0 processes) holds;
* environments violating the predicates may lose termination, never safety.
"""

from __future__ import annotations


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
from repro.predicates import POtr, PRestrOtr, otr_threshold

N = 6
ROUNDS = 40
VALUES = [30, 10, 20, 40, 60, 50]


def environments():
    """Named heard-of oracles, from benign to adversarial."""
    pi0 = frozenset(range(otr_threshold(N)))
    return {
        "fault-free": FaultFreeOracle(N),
        "silent-prefix": SilentRoundsOracle(N, silent_rounds=range(1, 6)),
        "minority-crash": StaticCrashOracle(N, {N - 1: 3}),
        "good-period-pi0": GoodPeriodOracle(N, pi0=pi0, good_from=8, good_to=20, seed=1),
        "light-loss": RandomOmissionOracle(N, loss_probability=0.1, seed=2),
        "heavy-loss": RandomOmissionOracle(N, loss_probability=0.7, seed=3),
        "permanent-partition": PartitionOracle(N, blocks=[[0, 1, 2], [3, 4, 5]]),
    }


def run_environment(name, oracle):
    machine = HOMachine(OneThirdRule(N), oracle, VALUES)
    machine.run(ROUNDS)
    trace = machine.trace
    verdict = check_consensus(trace, VALUES)
    return {
        "environment": name,
        "P_otr": POtr().holds(trace.ho_collection),
        "P_restr_otr": PRestrOtr().holds(trace.ho_collection),
        "safe": verdict.safe,
        "terminated": verdict.termination,
        "decided": len(verdict.decisions),
    }


def test_table1_predicate_matrix(benchmark, report):
    """Regenerates Table 1's role: which environments let OneThirdRule decide."""

    def run_all():
        return [run_environment(name, oracle) for name, oracle in environments().items()]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        f"{'environment':<22} {'P_otr':<6} {'P_restr_otr':<12} {'safe':<5} "
        f"{'terminated':<11} decided/n"
    ]
    for row in rows:
        lines.append(
            f"{row['environment']:<22} {str(row['P_otr']):<6} {str(row['P_restr_otr']):<12} "
            f"{str(row['safe']):<5} {str(row['terminated']):<11} {row['decided']}/{N}"
        )
    report("E1  Table 1 / Theorems 1-2: OneThirdRule under communication predicates", lines)

    for row in rows:
        # Safety must hold everywhere (Theorem 1's proof argument).
        assert row["safe"], f"safety violated under {row['environment']}"
        # Whenever P_otr holds on the recorded collection, everyone decided.
        if row["P_otr"]:
            assert row["terminated"], f"P_otr held but termination failed: {row['environment']}"
        # The permanent partition can never satisfy the predicates nor decide.
        if row["environment"] == "permanent-partition":
            assert not row["P_restr_otr"]
            assert not row["terminated"]


def test_table1_other_algorithms_same_environments(benchmark, report):
    """LastVoting and UniformVoting under the same benign environments (expressiveness of the model)."""

    def run_all():
        results = []
        for algorithm_factory in (LastVoting, UniformVoting):
            for name, oracle in (
                ("fault-free", FaultFreeOracle(N)),
                ("light-loss", RandomOmissionOracle(N, loss_probability=0.1, seed=4)),
            ):
                machine = HOMachine(algorithm_factory(N), oracle, VALUES)
                machine.run(ROUNDS)
                verdict = check_consensus(machine.trace, VALUES)
                results.append((algorithm_factory.name, name, verdict.safe, verdict.termination))
        return results

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [f"{'algorithm':<16} {'environment':<12} {'safe':<5} terminated"]
    for algorithm, environment, safe, terminated in rows:
        lines.append(f"{algorithm:<16} {environment:<12} {str(safe):<5} {terminated}")
    report("E1b Other HO algorithms under the same environments", lines)
    for algorithm, environment, safe, terminated in rows:
        assert safe
        if environment == "fault-free":
            assert terminated
