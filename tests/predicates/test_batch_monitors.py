"""The array monitors == the paper's definitions, replica by replica.

The reference is :mod:`tests.predicates._reference`: the whole-collection
checkers of :mod:`repro.predicates.static` on every round prefix, folded
into run-length reports.  No monitor code runs in it, so every replica's
report is checked against an independent witness.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.predicates import MONITOR_NAMES, MonitorBank
from repro.predicates.static import otr_threshold
from repro.rounds.bitmask import mask_of, mask_to_words

from ._reference import (
    collection_of,
    reference_report,
    reference_reports,
    reference_stop_round,
    restr_otr_candidate,
)


def random_mask_rounds(n, rounds, seed, shape_bias):
    """A replica's mask stream mixing uniform, kernel-ish and noisy rounds."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    out = []
    for _ in range(rounds):
        style = rng.random()
        if style < shape_bias:
            out.append([full] * n)                      # space-uniform full round
        elif style < 2 * shape_bias:
            core = full & ~(1 << rng.randrange(n))
            out.append([core | (1 << p) for p in range(n)])  # kernel-ish round
        else:
            out.append([rng.randrange(1 << n) | (1 << p) for p in range(n)])
    return out


def expected_reports(n, streams, pi0):
    """Every stream's reports for all six predicates, folded from the definitions."""
    return [
        {name: reference_report(name, n, stream, pi0).to_json_dict() for name in MONITOR_NAMES}
        for stream in streams
    ]


def round_arrays(n, streams, round):
    """One lockstep round of *streams* as the bank's ``(words, heard, popc)``."""
    import numpy as np

    from repro.batch.arrays import popcount_words, unpack_words, words_array_from_masks

    words = np.stack([words_array_from_masks(stream[round - 1], n) for stream in streams])
    return words, unpack_words(words, n), popcount_words(words)


def batched_reports(n, streams, pi0):
    import numpy as np

    from repro.predicates.batch import BatchMonitorBank

    replicas = len(streams)
    bank = BatchMonitorBank(
        n, replicas, MONITOR_NAMES, pi0_mask=None if pi0 is None else mask_of(pi0)
    )
    rounds = len(streams[0])
    active = np.ones(replicas, dtype=bool)
    for round in range(1, rounds + 1):
        bank.observe_round(round, *round_arrays(n, streams, round), active)
    return [bank.reports_json_of(r) for r in range(replicas)]


class TestBatchedMonitorEquivalence:
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("shape_bias", [0.15, 0.4])
    def test_all_six_monitors_match_per_replica(self, n, shape_bias):
        streams = [random_mask_rounds(n, 25, seed, shape_bias) for seed in range(6)]
        pi0 = frozenset(range(n))
        assert batched_reports(n, streams, pi0) == expected_reports(n, streams, pi0)

    def test_restricted_pi0_scope(self):
        n = 6
        streams = [random_mask_rounds(n, 20, 50 + seed, 0.3) for seed in range(4)]
        pi0 = frozenset({0, 1, 2, 4})
        assert batched_reports(n, streams, pi0) == expected_reports(n, streams, pi0)

    def test_word_boundary_system_size(self):
        n = 65
        rng = random.Random(1)
        full = (1 << n) - 1
        streams = [
            [
                [full] * n if r % 4 == 0 else
                [rng.getrandbits(n) | (1 << p) for p in range(n)]
                for r in range(12)
            ]
            for _ in range(3)
        ]
        pi0 = frozenset(range(n))
        assert batched_reports(n, streams, pi0) == expected_reports(n, streams, pi0)

    def test_inactive_replicas_freeze(self):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank

        n = 4
        streams = [random_mask_rounds(n, 10, seed, 0.3) for seed in range(3)]
        bank = BatchMonitorBank(n, 3, MONITOR_NAMES)
        for round in range(1, 11):
            # replica 1 stops after round 4
            active = np.array([True, round <= 4, True])
            bank.observe_round(round, *round_arrays(n, streams, round), active)
        # replica 1 must report exactly its first 4 rounds
        expected = expected_reports(n, [streams[1][:4]], frozenset(range(n)))[0]
        assert bank.reports_json_of(1) == expected
        full_expected = expected_reports(n, [streams[0]], frozenset(range(n)))[0]
        assert bank.reports_json_of(0) == full_expected

    def test_stop_after_held_matches_the_run_length_rule(self):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank

        n = 4
        streams = [random_mask_rounds(n, 15, 70 + seed, 0.5) for seed in range(5)]
        batch_bank = BatchMonitorBank(n, 5, ("p_k",), stop_after_held=3)
        active = np.ones(5, dtype=bool)
        for round in range(1, 16):
            batch_bank.observe_round(round, *round_arrays(n, streams, round), active)
            active &= ~batch_bank.stop_array
        batch_stops = [
            None if not batch_bank.stop_array[r] else int(
                batch_bank.monitors[0].rounds_observed[r]
            )
            for r in range(5)
        ]
        assert batch_stops == [reference_stop_round(("p_k",), n, s, 3) for s in streams]

    def test_stop_after_held_fires_through_any_monitor(self):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank

        n, pi0, names = 4, {0, 1, 2}, ("p_otr", "p_su")
        su = [0b0111] * 3 + [0b1000]        # space uniform for Pi0, not uniform
        full = [0b1111] * n                 # uniform quorum, not space uniform
        streams = [
            [su] * 5,                       # stops at round 3 through p_su only
            [full] * 5,                     # stops at round 3 through p_otr
            [su, full] * 2 + [su],          # neither holds 3 rounds in a row
            [full, full, su, su, su],       # p_otr's run breaks, p_su's completes
            random_mask_rounds(n, 5, 90, 0.5),
        ]
        batch_bank = BatchMonitorBank(n, 5, names, pi0_mask=mask_of(pi0), stop_after_held=3)
        # the single-run bank evaluates the same rule itself, on its R = 1 monitors
        run_banks = [MonitorBank(n, names, pi0_mask=mask_of(pi0), stop_after_held=3)
                     for _ in streams]
        active = np.ones(5, dtype=bool)
        stops = [None] * 5
        batch_stops = [None] * 5
        for round in range(1, 6):
            batch_bank.observe_round(round, *round_arrays(n, streams, round), active)
            for r, bank in enumerate(run_banks):
                if stops[r] is None:
                    bank.observe_round(round, streams[r][round - 1])
                    if bank.stop_requested:
                        stops[r] = round
                if batch_stops[r] is None and batch_bank.stop_array[r]:
                    batch_stops[r] = round
            active &= ~batch_bank.stop_array
        assert batch_stops == stops
        assert stops == [reference_stop_round(names, n, s, 3, pi0) for s in streams]
        assert stops[:4] == [3, 3, None, 5]
        otr, su_monitor = batch_bank.monitors
        assert otr.longest_good[0] == 0 and su_monitor.current_good[0] == 3


# --------------------------------------------------------------------------- #
# generated collections: every report field against the static definitions
# --------------------------------------------------------------------------- #


def generated_rounds(n, rounds, rng, pi0):
    """Rounds that make each of the six good conditions and verdicts go both ways.

    Everybody heard; Pi0 space uniform and Pi0 kernel rounds (the other
    processes hear noise); planted candidates at and around the ``2n/3``
    threshold; large but non-uniform heard-of sets (``P_otr``'s second
    clause); noise with self-delivery; and silence.
    """
    full = (1 << n) - 1
    pi0_mask = mask_of(pi0)
    threshold = otr_threshold(n)
    noise = lambda: rng.getrandbits(n)  # noqa: E731
    out = []
    for _ in range(rounds):
        kind = rng.randrange(7)
        if kind == 0:
            row = [full] * n
        elif kind == 1:
            row = [pi0_mask if p in pi0 else noise() for p in range(n)]
        elif kind == 2:
            row = [pi0_mask | noise() if p in pi0 else noise() for p in range(n)]
        elif kind == 3:
            members = rng.sample(range(n), rng.randint(max(threshold - 1, 1), n))
            mask = mask_of(members)
            row = [mask if p in members else noise() for p in range(n)]
        elif kind == 4:
            row = [mask_of(rng.sample(range(n), rng.randint(threshold, n))) for _ in range(n)]
        elif kind == 5:
            row = [noise() | 1 << p for p in range(n)]
        else:
            row = [0] * n
        out.append(row)
    return out


GENERATED_SIZES = [1, 2, 3, 7, 63, 64, 65, 129]


class TestGeneratedAgainstTheDefinitions:
    """R replicas, rows retiring at different rounds, Pi0 everyone or restricted:
    every field of every report equals the fold of the static definitions."""

    REPLICAS = 4
    ROUNDS = 9

    @pytest.mark.parametrize("restricted", [False, True], ids=["pi0-all", "pi0-restricted"])
    @pytest.mark.parametrize("n", GENERATED_SIZES)
    def test_every_report_field_matches(self, n, restricted):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank

        rng = random.Random(1000 * n + restricted)
        pi0 = frozenset(
            rng.sample(range(n), rng.randint(0, n - 1)) if restricted else range(n)
        )
        streams = [
            generated_rounds(n, self.ROUNDS, rng, pi0) for _ in range(self.REPLICAS)
        ]
        # replica 0 runs the distance; the others retire mid-run, one after round 1
        active_rounds = [self.ROUNDS, 1, self.ROUNDS // 2, self.ROUNDS - 1]
        bank = BatchMonitorBank(n, self.REPLICAS, MONITOR_NAMES, pi0_mask=mask_of(pi0))
        for round in range(1, self.ROUNDS + 1):
            active = np.array([round <= limit for limit in active_rounds])
            bank.observe_round(round, *round_arrays(n, streams, round), active)
        for r, stream in enumerate(streams):
            seen = stream[:active_rounds[r]]
            expected = {name: reference_report(name, n, seen, pi0) for name in MONITOR_NAMES}
            assert bank.reports_of(r) == expected, (n, sorted(pi0), r)


# --------------------------------------------------------------------------- #
# P_restr_otr: the median-row candidate scan against the definition's candidates
# --------------------------------------------------------------------------- #


def scan_probe_rounds(n, seed):
    """Heard-of vectors that probe the candidate scan at system size *n*.

    Everybody and nobody heard; planted candidates of size threshold - 1,
    threshold and n, alone, with every non-member holding the candidate's
    row without hearing itself, and with one member holding another row;
    two near-candidates splitting the processes; a majority row with random
    members; and random noise, with and without self-delivery.
    """
    rng = random.Random(seed)
    full = (1 << n) - 1
    noise = lambda: rng.getrandbits(n)  # noqa: E731
    rounds = [[full] * n, [0] * n]
    for size in sorted({otr_threshold(n) - 1, otr_threshold(n), n} - {0}):
        members = rng.sample(range(n), size)
        mask = mask_of(members)
        planted = [mask if p in members else noise() for p in range(n)]
        defector = list(planted)
        defector[members[-1]] = mask ^ (1 << rng.randrange(n))
        rounds += [planted, [mask] * n, defector]
    split = mask_of(rng.sample(range(n), n // 2))
    rounds.append([split if split >> p & 1 else full & ~split for p in range(n)])
    for _ in range(4):
        common = noise() | 1 << rng.randrange(n)
        rounds.append([common if rng.random() < 0.8 else noise() for _ in range(n)])
        rounds.append([noise() for _ in range(n)])
        rounds.append([noise() | 1 << p for p in range(n)])
    return rounds


class TestRestrOtrMedianScan:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 64, 65, 129])
    def test_scan_matches_the_static_candidate_round_by_round(self, n):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank

        probes = scan_probe_rounds(n, seed=n)
        replicas = len(probes)
        # replica r sees probes r, r + 1, r + 2: every probe opens a table
        # in round 1 and meets a non-empty one later
        streams = [[probes[(r + k) % replicas] for k in range(3)] for r in range(replicas)]
        bank = BatchMonitorBank(n, replicas, ("p_restr_otr",))
        monitor = bank.monitors[0]
        active = np.ones(replicas, dtype=bool)
        candidates = []
        for round in range(1, 4):
            good_before = monitor.good_rounds.copy()
            count_before = monitor._count.copy()
            bank.observe_round(round, *round_arrays(n, streams, round), active)
            for r in range(replicas):
                found = restr_otr_candidate(collection_of(n, [streams[r][round - 1]]), 1)
                candidate = 0 if found is None else mask_of(found)
                candidates.append(candidate)
                assert monitor.good_rounds[r] - good_before[r] == (candidate != 0), (round, r)
                opened = monitor._count[r] > count_before[r]
                assert opened == (candidate != 0 and not monitor._satisfied[r]), (round, r)
                if opened:
                    appended = monitor._cand[r, count_before[r]].tolist()
                    assert appended == list(mask_to_words(candidate, n)), (round, r)
        assert any(candidates) and not all(candidates)
        restr_otr_round_by_round(n, streams)


# --------------------------------------------------------------------------- #
# P_restr_otr: the array-form candidate table against the definition
# --------------------------------------------------------------------------- #


def candidate_round(n, members):
    """*members* hear exactly each other; everybody else only themselves."""
    mask = mask_of(members)
    return [mask if p in members else 1 << p for p in range(n)]


def hearing_round(n, hearers):
    """*hearers* hear everybody; everybody else only themselves."""
    full = (1 << n) - 1
    return [full if p in hearers else 1 << p for p in range(n)]


def quiet_round(n):
    return hearing_round(n, ())


def restr_otr_round_by_round(n, streams, active_rounds=None):
    """Feed *streams* to the array monitor; reports must match after every round.

    Replica r is active for its first ``active_rounds[r]`` rounds (default:
    all); its reference is the fold over exactly those rounds, which is
    what a finished run looks like.  Returns the monitor.
    """
    import numpy as np

    from repro.predicates.batch import BatchMonitorBank

    replicas = len(streams)
    rounds = len(streams[0])
    active_rounds = active_rounds or [rounds] * replicas
    bank = BatchMonitorBank(n, replicas, ("p_restr_otr",))
    expected = [
        reference_reports("p_restr_otr", n, stream[:limit])
        for stream, limit in zip(streams, active_rounds)
    ]
    for round in range(1, rounds + 1):
        active = np.array([round <= limit for limit in active_rounds])
        bank.observe_round(round, *round_arrays(n, streams, round), active)
        for r in range(replicas):
            seen = min(round, active_rounds[r])
            assert bank.reports_of(r)["p_restr_otr"] == expected[r][seen - 1], (round, r)
    return bank.monitors[0]


class TestRestrOtrCandidateTable:
    N = 7                       # threshold 5: the 21 five-subsets are candidates
    FIVES = [frozenset(c) for c in itertools.combinations(range(7), 5)]

    def test_several_open_candidates_one_replica_completes(self):
        n = self.N
        opening = [candidate_round(n, members) for members in self.FIVES[:3]]
        target = sorted(self.FIVES[1])
        # the second candidate's members hear everybody over two rounds;
        # the other two each keep a member that never does
        completing = [hearing_round(n, target[:2]), hearing_round(n, target[2:])]
        streams = [
            opening + completing + [quiet_round(n)],
            opening + [quiet_round(n)] * 3,
        ]
        monitor = restr_otr_round_by_round(n, streams)
        assert monitor._count.tolist() == [3, 3]
        assert monitor._verdict().tolist() == [True, False]
        assert monitor.report_of(0).first_hold_round == 5

    def test_table_grows_twice_and_never_evicts(self):
        from repro.predicates.batch import BatchPRestrOtrMonitor

        n = self.N
        fresh = [candidate_round(n, members) for members in self.FIVES[:12]]
        streams = [
            fresh + [hearing_round(n, range(n))],
            fresh[::-1] + [hearing_round(n, range(n))],
            [quiet_round(n)] * 13,                      # a row that never opens one
        ]
        monitor = restr_otr_round_by_round(n, streams)
        assert monitor._count.tolist() == [12, 12, 0]
        assert monitor._cand.shape[1] == 4 * BatchPRestrOtrMonitor.INITIAL_SLOTS
        assert monitor._pending.shape[1] == monitor._cand.shape[1]
        # the last round completes even the first-opened candidate
        assert monitor._verdict().tolist() == [True, True, False]

    def test_recurring_candidate_completes_itself(self):
        # The same Pi0 twice: the second occurrence is a round in which every
        # member hears all of Pi0, so it is a witness, not a second entry.
        n = self.N
        again = candidate_round(n, self.FIVES[0])
        other = candidate_round(n, self.FIVES[1])
        streams = [[again, other, again, other], [again, quiet_round(n), other, again]]
        monitor = restr_otr_round_by_round(n, streams)
        assert [monitor.report_of(r).first_hold_round for r in range(2)] == [3, 4]
        assert monitor._count.tolist() == [2, 2]

    def test_inactive_replica_is_frozen_with_an_open_candidate(self):
        n = self.N
        opening = candidate_round(n, self.FIVES[0])
        everyone = hearing_round(n, range(n))
        streams = [[quiet_round(n), opening, everyone, everyone]] * 2
        monitor = restr_otr_round_by_round(n, streams, active_rounds=[4, 2])
        assert monitor._verdict().tolist() == [True, False]
        assert monitor._pending[1, 0].tolist() == [p in self.FIVES[0] for p in range(n)]

    def test_two_word_candidates(self):
        n = 65                                          # W = 2, threshold 44
        straddling = frozenset(range(20, 65))
        low_heavy = frozenset(range(44)) | {64}
        streams = [
            [
                candidate_round(n, straddling),
                hearing_round(n, range(20, 40)),
                candidate_round(n, low_heavy),
                hearing_round(n, range(40, 65)),
            ],
            [
                candidate_round(n, low_heavy),
                candidate_round(n, straddling),
                # covers the low word of `straddling` only: clears nothing
                candidate_round(n, straddling - {64}),
                hearing_round(n, {64}),
            ],
        ]
        monitor = restr_otr_round_by_round(n, streams)
        assert monitor.words == 2
        assert monitor._verdict().tolist() == [True, False]
        assert monitor._count.tolist() == [2, 3]
