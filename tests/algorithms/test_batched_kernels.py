"""The numpy transition kernels, step by step against the scalar algorithms.

Properties of :mod:`repro.algorithms.batched` that the grid-level parity
suites only reach by accident:

* ``BatchOneThirdRule`` on generated heard-matrices that force its two
  ``argmax`` paths -- several values tied for the top count (``argmax``
  and ``Counter.most_common`` then name different winners, and neither may
  be adopted or decided) and empty or sub-threshold HO sets (winner and
  minimum heard code are garbage and must be masked by the update gate) --
  with mixed-``row_n`` padding and drawn replica activity, over few values
  (the counts are ranked over the values still held) or all-distinct ones
  (full width), compared to the scalar ``OneThirdRule`` after every round;
  the arithmetic that makes the tie unobservable is checked exhaustively
  for small n, and directed rounds pin the ties, a round nobody passes the
  gate in, rows holding different values and a padding value nobody real
  holds any more;
* directed rounds around OneThirdRule's settled-row skip: every acting
  row settled, one acting row not, processes of a settled row below the
  gate, padding that keeps a row from looking settled, asleep rows;
* the steady-state ``step`` of each kernel allocates no ``(R, n, n)``
  temporary, whether OneThirdRule counts votes or skips the count: every
  full-shape intermediate lives in the kernel's scratch;
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
    BatchUnsupported,
    encode_values,
)
from tests.conftest import steady_state_peak_growth

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_MAX = 7
ROUNDS = 3


@st.composite
def padded_replicas(draw):
    """Replicas of 1..N_MAX processes with schedules and activity.

    Values come from a three-letter alphabet, a one-letter one or are all
    distinct.  Three values among up to seven processes make top-count
    ties the common case; one value makes a settled row, whose step skips
    the vote count when every acting row is settled; a ladder of distinct
    values in a full-size row makes a full-width round (every code held)
    possible.  Half the HO sets are arbitrary subsets, so empty and
    sub-threshold ones are common; the other half miss at most two
    senders, so most rounds have processes past the gate.
    A replica sits out about one round in four.
    """
    replicas = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        size = draw(st.integers(min_value=1, max_value=N_MAX) | st.just(N_MAX))
        values = draw(
            st.lists(st.sampled_from([3, 5, 8]), min_size=size, max_size=size)
            | st.just([5] * size)
            | st.permutations([10 * (v + 1) for v in range(size)])
        )
        senders = st.integers(min_value=0, max_value=size - 1)
        subset = st.frozensets(senders, max_size=size) | st.frozensets(senders, max_size=2).map(
            lambda missed: frozenset(range(size)) - missed
        )
        schedule = draw(
            st.lists(
                st.lists(subset, min_size=size, max_size=size),
                min_size=ROUNDS,
                max_size=ROUNDS,
            )
        )
        awake = draw(st.lists(st.integers(0, 3).map(bool), min_size=ROUNDS, max_size=ROUNDS))
        replicas.append((size, values, schedule, awake))
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
    """Step ``(size, values, schedule[, awake])`` replicas through both duals.

    The super-batch layout: every row padded to *width* columns with its
    own first value, padded receivers and senders never heard.  A replica
    whose ``awake`` entry for a round is False (default: always awake) is
    inactive then: the kernel is still handed its heard rows, the scalar
    run skips the round.  After every round the estimates, the decisions
    and the rounds they were taken in must equal the scalar run's.
    """
    import numpy as np

    sizes = [size for size, *_ in replicas]
    kernel = BatchOneThirdRule(
        width,
        [encode_values(values + values[:1] * (width - size)) for size, values, *_ in replicas],
        row_n=None if all(size == width for size in sizes) else sizes,
    )
    algorithms = [OneThirdRule(size) for size in sizes]
    states = [
        [algorithm.initial_state(p, values[p]) for p in range(size)]
        for algorithm, (size, values, *_) in zip(algorithms, replicas)
    ]
    scalar_rounds = [{} for _ in replicas]
    awake = np.array(
        [replica[3] if len(replica) > 3 else [True] * rounds for replica in replicas], dtype=bool
    )
    for round in range(1, rounds + 1):
        heard = np.zeros((len(replicas), width, width), dtype=bool)
        active = awake[:, round - 1]
        for r, (size, _, schedule, *_) in enumerate(replicas):
            for p, ho in enumerate(schedule[round - 1]):
                heard[r, p, sorted(ho)] = True
            if not active[r]:
                continue
            states[r] = scalar_round(algorithms[r], round, states[r], schedule[round - 1])
            for p, state in enumerate(states[r]):
                if state.decision is not None:
                    scalar_rounds[r].setdefault(p, round)
        kernel.step(round, heard, heard.sum(axis=2), active)
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


#: Rounds that reach the kernel's value ranking: which rows count votes, and
#: over which held values.  Each entry is one row space, like TIE_REPLICAS;
#: a fourth tuple element is the replica's per-round activity.
RANKED_REPLICAS = {
    # Round 1 has no process past the gate -- the first replica hears two
    # of six, the second would pass but sits the round out -- so the step
    # returns before counting anything.
    "gate-closed": [
        (6, [5, 3, 8, 5, 3, 8], [[frozenset({0, 1})] * 6, _everyone(6), _everyone(6)]),
        (4, [1, 2, 1, 2], [_everyone(4)] * 3, [False, True, True]),
    ],
    # Round 1: only the first replica acts, so only its two values are
    # ranked; the second (six distinct values, sub-threshold) and the third
    # (asleep) rank -1.  Round 2: the second acts over all six codes, the
    # full-width case.
    "rows-hold-different-values": [
        (6, [5, 5, 5, 5, 3, 3], [_everyone(6)] * 3),
        (6, [1, 2, 3, 4, 5, 6], [[frozenset({0, 1, 2})] * 6, _everyone(6), _everyone(6)]),
        (6, [8, 8, 8, 8, 1, 1], [_everyone(6)] * 3, [False, True, True]),
    ],
    # Round 1: only process 0 acts and trades its 3 for a 5, so nobody holds
    # the smallest code any more.  Round 2 is a 4-3 split, not adoptable:
    # the smallest heard value is rank 0, which is code 1.  Round 3
    # decides 5, rank 0 again.
    "smallest-value-gone": [
        (
            7,
            [3, 5, 5, 5, 8, 8, 8],
            [[frozenset(range(5))] + [frozenset({p}) for p in range(1, 7)]]
            + [_everyone(7)] * 2,
        )
    ],
    # The four-process row decides 8 in round 1; from round 2 its padding
    # columns are the only holders of 3, its smallest code, which nobody
    # real hears: the first heard rank is 8's.
    "stale-padding": [
        (6, [5, 5, 5, 5, 3, 3], [_everyone(6)] * 3),
        (4, [3, 8, 8, 8], [_everyone(4)] * 3),
    ],
}
#: Rounds around the settled-row skip: a step whose every acting row holds
#: one value decides the acting processes without counting votes.
SETTLED_REPLICAS = {
    # Every row settled from the start, the four-process one padded with
    # its own value: all three rounds skip.
    "all-settled": [
        (6, [5] * 6, [_everyone(6)] * 3),
        (4, [8] * 4, [_everyone(4)] * 3),
    ],
    # Round 1: the second row is 4-2 and still counts for both rows (it
    # adopts 5 but 4 of 6 is no decision).  Round 2 it is settled too.
    "one-unsettled": [
        (6, [5] * 6, [_everyone(6)] * 3),
        (6, [5, 5, 5, 5, 3, 3], [_everyone(6)] * 3),
    ],
    # Round 1 skips, but processes 3..5 hear only themselves: they are
    # below the gate and must not decide until round 2.
    "sub-threshold-in-settled-row": [
        (
            6,
            [5] * 6,
            [[frozenset(range(6))] * 3 + [frozenset({p}) for p in range(3, 6)]]
            + [_everyone(6)] * 2,
        )
    ],
    # The four-process row decides 8 in round 1, but its padding still
    # holds 3: it never looks settled, so every round counts.
    "padded-row-never-looks-settled": [
        (6, [5] * 6, [_everyone(6)] * 3),
        (4, [3, 8, 8, 8], [_everyone(4)] * 3),
    ],
    # An asleep row neither blocks the skip nor decides in it: round 1 skips
    # past the unsettled second row, round 2 counts for it, round 3 skips
    # and the third row decides only once it wakes.
    "inactive-replicas": [
        (6, [5] * 6, [_everyone(6)] * 3),
        (6, [5, 5, 5, 5, 3, 3], [_everyone(6)] * 3, [False, True, True]),
        (6, [8] * 6, [_everyone(6)] * 3, [False, False, True]),
    ],
}
#: The rounds in which each settled case counts votes.
SETTLED_COUNTED_ROUNDS = {
    "all-settled": [],
    "one-unsettled": [1],
    "sub-threshold-in-settled-row": [],
    "padded-row-never-looks-settled": [1, 2, 3],
    "inactive-replicas": [2],
}
DIRECTED_REPLICAS = {**TIE_REPLICAS, **RANKED_REPLICAS, **SETTLED_REPLICAS}


@pytest.mark.parametrize("case", sorted(DIRECTED_REPLICAS))
def test_directed_tie_rounds_match_scalar(case):
    replicas = DIRECTED_REPLICAS[case]
    width = max(size for size, *_ in replicas)
    kernel = assert_matches_scalar_every_round(replicas, width=width)
    # every directed replica ends decided on one value (ties only delay it)
    for r, (size, *_) in enumerate(replicas):
        decisions, _ = kernel.decisions_of(r)
        assert len(decisions) == size and len(set(decisions.values())) == 1, (case, r)


@pytest.mark.parametrize("case", sorted(SETTLED_REPLICAS))
def test_settled_rows_skip_the_vote_count(case, monkeypatch):
    """A step counts votes (``_held_ranks`` runs) exactly in the rounds in
    which some acting row is not settled."""
    events = []
    held_ranks = BatchOneThirdRule._held_ranks
    record = BatchOneThirdRule._record_decisions

    def counting(kernel, acting_rows):
        events.append("count")
        return held_ranks(kernel, acting_rows)

    def recording(kernel, round, fire, codes):
        events.append(round)
        return record(kernel, round, fire, codes)

    monkeypatch.setattr(BatchOneThirdRule, "_held_ranks", counting)
    monkeypatch.setattr(BatchOneThirdRule, "_record_decisions", recording)
    replicas = SETTLED_REPLICAS[case]
    assert_matches_scalar_every_round(replicas, width=max(size for size, *_ in replicas))
    counted = [event for before, event in zip(events, events[1:]) if before == "count"]
    assert counted == SETTLED_COUNTED_ROUNDS[case]


def _steady_heard(replicas, n):
    """A fixed, aperiodic ~80 % heard pattern (diagonal included)."""
    import numpy as np

    cells = np.arange(replicas * n * n, dtype=np.int64).reshape(replicas, n, n)
    heard = (cells * 2654435761 >> 9) % 5 != 0
    heard |= np.eye(n, dtype=bool)
    return heard


@pytest.mark.parametrize(
    "kernel_class", [BatchOneThirdRule, BatchUniformVoting, BatchLastVoting]
)
def test_steady_state_step_allocates_no_heard_matrix(kernel_class):
    """After two warm-up rounds at R = n = 64, three further ``step`` calls
    grow the traced peak by less than one ``R*n*n``-byte matrix -- the
    smallest full-shape temporary there is (a bool one)."""
    import numpy as np

    replicas = n = 64
    heard = _steady_heard(replicas, n)
    # The rows settle during the warm-up, and a OneThirdRule step over
    # settled rows skips its vote count.  In row 0, process 0 hears only
    # itself and nobody hears it, so it keeps the one value nobody else
    # holds and every step counts.
    heard[0, 0, :] = heard[0, :, 0] = False
    heard[0, 0, 0] = True
    heard_count = heard.sum(axis=2)
    active = np.ones(replicas, dtype=bool)
    encoded = [encode_values([10 * (p + 1) for p in range(n)])] * replicas
    kernels = []

    def build():
        kernels.append(kernel_class(n, encoded))
        return lambda round: kernels[0].step(round, heard, heard_count, active)

    growth = steady_state_peak_growth(build)
    assert growth < replicas * n * n, (kernel_class.__name__, growth)
    assert len(set(kernels[0].x[0].tolist())) > 1


def test_settled_step_allocates_no_heard_matrix():
    """The same bound for a OneThirdRule step that skips its vote count:
    every row holds one value from the start."""
    import numpy as np

    replicas = n = 64
    heard = _steady_heard(replicas, n)
    heard_count = heard.sum(axis=2)
    active = np.ones(replicas, dtype=bool)
    encoded = [encode_values([10] * n)] * replicas

    def build():
        kernel = BatchOneThirdRule(n, encoded)
        return lambda round: kernel.step(round, heard, heard_count, active)

    growth = steady_state_peak_growth(build)
    assert growth < replicas * n * n, growth


@pytest.mark.parametrize(
    "values", [[30, 10, 20, 10], ["b", "a", "b"], [2**70, -1, 2**70], [2.5, 1, 2.5], [True, 2]]
)
def test_encoded_codes_sort_and_decode_like_the_values(values):
    table, codes = encode_values(values)
    assert table == sorted(set(values))
    assert [repr(table[code]) for code in codes] == [repr(value) for value in values]


@pytest.mark.parametrize(
    "values", [[1.0, 1, 2], [1, 1.0], [True, 1], [1, True, 2], [0, False], [2, 1, 1.0]]
)
def test_equal_values_with_different_reprs_decline(values):
    """Only all-int and all-str rows skip the per-value repr check."""
    with pytest.raises(BatchUnsupported, match="repr"):
        encode_values(values)


def test_every_kernel_is_registered_under_the_algorithm_it_duals():
    # registration is an import side-effect: pull in the module that
    # registers beyond repro.algorithms.batched, or this depends on test order
    import repro.predimpl.batched_translation  # noqa: F401

    assert _KERNELS
    for algorithm_class, kernel_class in _KERNELS.items():
        assert issubclass(kernel_class, BatchKernel), (algorithm_class, kernel_class)
        assert kernel_class.algorithm_class is algorithm_class, kernel_class
