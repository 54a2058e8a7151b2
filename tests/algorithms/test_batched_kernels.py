"""The numpy transition kernels, step by step against the scalar algorithms.

Properties of :mod:`repro.algorithms.batched` that the grid-level parity
suites only reach by accident:

* ``BatchOneThirdRule`` on generated heard-matrices that force its two
  ``argmax`` paths -- several values tied for the top count (``argmax``
  and ``Counter.most_common`` then name different winners, and neither may
  be adopted or decided) and empty or sub-threshold HO sets (winner and
  minimum heard code are garbage and must be masked by the update gate) --
  with mixed-``row_n`` padding, compared to the scalar ``OneThirdRule``
  after every round; the arithmetic that makes the tie unobservable is
  checked exhaustively for small n, and directed tie rounds pin it;
* the steady-state ``step`` of each kernel allocates no ``(R, n, n)``
  temporary: every full-shape intermediate lives in the kernel's scratch;
* every kernel registration is coherent with the scalar algorithm it is
  the dual of (a mis-registration does not crash, it silently drops cells
  to the scalar loop or runs the wrong dual).
"""

from __future__ import annotations

import pytest

from repro.algorithms import OneThirdRule
from repro.algorithms.batched import (
    _KERNELS,
    BatchKernel,
    BatchLastVoting,
    BatchOneThirdRule,
    BatchUniformVoting,
    encode_values,
)
from tests.conftest import steady_state_peak_growth

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_MAX = 7
ROUNDS = 3


@st.composite
def padded_replicas(draw):
    """Replicas of 1..N_MAX processes over a three-letter alphabet, with schedules.

    Three values among up to seven processes make top-count ties the common
    case; the HO sets are arbitrary subsets, so empty and sub-threshold
    ones are too.
    """
    replicas = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        size = draw(st.integers(min_value=1, max_value=N_MAX))
        values = draw(st.lists(st.sampled_from([3, 5, 8]), min_size=size, max_size=size))
        subset = st.frozensets(st.integers(min_value=0, max_value=size - 1), max_size=size)
        schedule = draw(
            st.lists(
                st.lists(subset, min_size=size, max_size=size),
                min_size=ROUNDS,
                max_size=ROUNDS,
            )
        )
        replicas.append((size, values, schedule))
    return replicas


def scalar_round(algorithm, round, states, ho_sets):
    messages = [algorithm.send(round, p, state) for p, state in enumerate(states)]
    return [
        algorithm.transition(
            round, p, states[p], {q: messages[q] for q in sorted(ho_sets[p])}
        )
        for p in range(algorithm.n)
    ]


def assert_matches_scalar_every_round(replicas, width=N_MAX, rounds=ROUNDS):
    """Step ``(size, values, schedule)`` replicas through both duals.

    The super-batch layout: every row padded to *width* columns with its
    own first value, padded receivers and senders never heard.  After every
    round the estimates, the decisions and the rounds they were taken in
    must equal the scalar run's.
    """
    import numpy as np

    sizes = [size for size, _, _ in replicas]
    kernel = BatchOneThirdRule(
        width,
        [encode_values(values + values[:1] * (width - size)) for size, values, _ in replicas],
        row_n=None if all(size == width for size in sizes) else sizes,
    )
    algorithms = [OneThirdRule(size) for size in sizes]
    states = [
        [algorithm.initial_state(p, values[p]) for p in range(size)]
        for algorithm, (size, values, _) in zip(algorithms, replicas)
    ]
    scalar_rounds = [{} for _ in replicas]
    active = np.ones(len(replicas), dtype=bool)
    for round in range(1, rounds + 1):
        heard = np.zeros((len(replicas), width, width), dtype=bool)
        for r, (size, _, schedule) in enumerate(replicas):
            for p, ho in enumerate(schedule[round - 1]):
                heard[r, p, sorted(ho)] = True
            states[r] = scalar_round(algorithms[r], round, states[r], schedule[round - 1])
            for p, state in enumerate(states[r]):
                if state.decision is not None:
                    scalar_rounds[r].setdefault(p, round)
        kernel.step(round, heard, active)
        assert kernel.x.dtype == np.int32
        for r, size in enumerate(sizes):
            estimates = [kernel.decode(r, int(code)) for code in kernel.x[r, :size]]
            assert estimates == [state.x for state in states[r]], (round, r)
            decisions, decision_rounds = kernel.decisions_of(r)
            assert decisions == {
                p: state.decision
                for p, state in enumerate(states[r])
                if state.decision is not None
            }, (round, r)
            assert decision_rounds == scalar_rounds[r], (round, r)
    return kernel


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(replicas=padded_replicas())
def test_one_third_rule_matches_scalar_on_ties_and_empty_ho_sets(replicas):
    assert_matches_scalar_every_round(replicas)


def test_adopted_or_decided_top_count_is_never_tied():
    """Every ``(n, hc, top)`` with n <= 12: past the update gate, adopting
    the top value or deciding it leaves fewer than ``top`` other senders,
    so no second value can reach ``top`` -- the one fact that lets the
    kernels read the winner off ``argmax`` with no tie-break."""
    reads = 0
    for n in range(1, 13):
        for hc in range(n + 1):
            if not 3 * hc > 2 * n:
                continue
            for top in range(1, hc + 1):
                if hc - top <= n // 3 or 3 * top > 2 * n:
                    reads += 1
                    assert hc - top < top, (n, hc, top)
    assert reads > 0


def _everyone(size):
    return [frozenset(range(size))] * size


TIE_REPLICAS = {
    # Three against three under full HO sets: most_common names the value
    # seen first (5), argmax the smaller code (3); nobody may adopt either
    # as "the top" -- all take the minimum, then decide it next round.
    "full-ho": [(6, [5, 5, 5, 3, 3, 3], [_everyone(6)] * 3)],
    "three-way": [(6, [8, 8, 5, 5, 3, 3], [_everyone(6)] * 3)],
    # n = 7 hearing only the first six: a tie at |HO| = 6 > 14/3; the
    # seventh process hears everyone and sees an untied 3-3-1 split.
    "partial-ho": [
        (
            7,
            [5, 5, 5, 3, 3, 3, 8],
            [[frozenset(range(6))] * 6 + [frozenset(range(7))]] + [_everyone(7)] * 2,
        )
    ],
    # Three against three, but round 1 hears only the first five: 5 5 5 3 3
    # is untied and adoptable (hc - top = 2 <= n//3), so 5 wins, not the min.
    "untied-by-ho": [
        (6, [5, 5, 5, 3, 3, 3], [[frozenset(range(5))] * 6, _everyone(6), _everyone(6)])
    ],
}
TIE_REPLICAS["mixed-row-n"] = [
    replica for name in ("full-ho", "partial-ho", "three-way") for replica in TIE_REPLICAS[name]
] + [(3, [8, 3, 8], [_everyone(3)] * 3)]


@pytest.mark.parametrize("case", sorted(TIE_REPLICAS))
def test_directed_tie_rounds_match_scalar(case):
    replicas = TIE_REPLICAS[case]
    width = max(size for size, _, _ in replicas)
    kernel = assert_matches_scalar_every_round(replicas, width=width)
    # every directed replica ends decided on one value (ties only delay it)
    for r, (size, _, _) in enumerate(replicas):
        decisions, _ = kernel.decisions_of(r)
        assert len(decisions) == size and len(set(decisions.values())) == 1, (case, r)


@pytest.mark.parametrize(
    "kernel_class", [BatchOneThirdRule, BatchUniformVoting, BatchLastVoting]
)
def test_steady_state_step_allocates_no_heard_matrix(kernel_class):
    """After two warm-up rounds at R = n = 64, three further ``step`` calls
    grow the traced peak by less than one ``R*n*n``-byte matrix -- the
    smallest full-shape temporary there is (a bool one)."""
    import numpy as np

    replicas = n = 64
    # A fixed, aperiodic ~80 % heard pattern (diagonal included).
    cells = np.arange(replicas * n * n, dtype=np.int64).reshape(replicas, n, n)
    heard = (cells * 2654435761 >> 9) % 5 != 0
    heard |= np.eye(n, dtype=bool)
    active = np.ones(replicas, dtype=bool)
    encoded = [encode_values([10 * (p + 1) for p in range(n)])] * replicas

    def build():
        kernel = kernel_class(n, encoded)
        return lambda round: kernel.step(round, heard, active)

    growth = steady_state_peak_growth(build)
    assert growth < replicas * n * n, (kernel_class.__name__, growth)


def test_every_kernel_is_registered_under_the_algorithm_it_duals():
    # registration is an import side-effect: pull in the module that
    # registers beyond repro.algorithms.batched, or this depends on test order
    import repro.predimpl.batched_translation  # noqa: F401

    assert _KERNELS
    for algorithm_class, kernel_class in _KERNELS.items():
        assert issubclass(kernel_class, BatchKernel), (algorithm_class, kernel_class)
        assert kernel_class.algorithm_class is algorithm_class, kernel_class
