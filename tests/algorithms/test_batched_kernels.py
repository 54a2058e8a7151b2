"""The numpy transition kernels, step by step against the scalar algorithms.

Two properties of :mod:`repro.algorithms.batched` that the grid-level parity
suites only reach by accident:

* ``BatchOneThirdRule`` on generated heard-matrices that force its two
  ``argmax`` paths -- several values tied for the top count (the winner is
  read off the first heard sender carrying one of them) and empty or
  sub-threshold HO sets (winner and minimum heard code are garbage and
  must be masked by the update gate) -- with mixed-``row_n`` padding,
  compared to the scalar ``OneThirdRule`` after every round;
* the steady-state ``step`` of each kernel allocates no ``(R, n, n)``
  temporary: every full-shape intermediate lives in the kernel's scratch.
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy
from repro.algorithms import OneThirdRule
from repro.algorithms.batched import BatchLastVoting, BatchOneThirdRule, BatchUniformVoting
from tests.conftest import steady_state_peak_growth

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy not available")

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


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(replicas=padded_replicas())
def test_one_third_rule_matches_scalar_on_ties_and_empty_ho_sets(replicas):
    import numpy as np

    # The super-batch layout: every row padded to N_MAX columns with its own
    # first value, padded receivers and senders never heard.
    kernel = BatchOneThirdRule(
        N_MAX,
        [values + values[:1] * (N_MAX - size) for size, values, _ in replicas],
        row_n=[size for size, _, _ in replicas],
    )
    algorithms = [OneThirdRule(size) for size, _, _ in replicas]
    states = [
        [algorithm.initial_state(p, values[p]) for p in range(size)]
        for algorithm, (size, values, _) in zip(algorithms, replicas)
    ]
    active = np.ones(len(replicas), dtype=bool)
    for round in range(1, ROUNDS + 1):
        heard = np.zeros((len(replicas), N_MAX, N_MAX), dtype=bool)
        for r, (size, _, schedule) in enumerate(replicas):
            for p, ho in enumerate(schedule[round - 1]):
                heard[r, p, sorted(ho)] = True
            states[r] = scalar_round(algorithms[r], round, states[r], schedule[round - 1])
        kernel.step(round, heard, active)
        assert kernel.x.dtype == np.int32
        for r, (size, _, _) in enumerate(replicas):
            estimates = [kernel.decode(r, int(code)) for code in kernel.x[r, :size]]
            assert estimates == [state.x for state in states[r]], (round, r)
            decisions, decision_rounds = kernel.decisions_of(r)
            assert decisions == {
                p: state.decision
                for p, state in enumerate(states[r])
                if state.decision is not None
            }, (round, r)
            assert all(p < size for p in decision_rounds)


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
    values = [[10 * (p + 1) for p in range(n)] for _ in range(replicas)]

    def build():
        kernel = kernel_class(n, values)
        return lambda round: kernel.step(round, heard, active)

    growth = steady_state_peak_growth(build)
    assert growth < replicas * n * n, (kernel_class.__name__, growth)
