"""Batched predicate monitors == scalar streaming monitors, replica by replica.

The scalar monitors are themselves property-pinned against the
whole-collection checkers, so agreeing with them transitively pins the
batched kernels to Table 1 / Section 4.2.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro._optional import have_numpy
from repro.predicates import MONITOR_NAMES, MonitorBank, build_monitor
from repro.rounds.bitmask import mask_of

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


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


def scalar_reports(n, streams, pi0):
    reports = []
    for masks_per_round in streams:
        bank = MonitorBank(n, [build_monitor(name, n, pi0=pi0) for name in MONITOR_NAMES])
        for round, masks in enumerate(masks_per_round, start=1):
            bank.observe_round(round, masks)
        reports.append({name: r.to_json_dict() for name, r in bank.reports().items()})
    return reports


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
        assert batched_reports(n, streams, pi0) == scalar_reports(n, streams, pi0)

    def test_restricted_pi0_scope(self):
        n = 6
        streams = [random_mask_rounds(n, 20, 50 + seed, 0.3) for seed in range(4)]
        pi0 = frozenset({0, 1, 2, 4})
        assert batched_reports(n, streams, pi0) == scalar_reports(n, streams, pi0)

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
        assert batched_reports(n, streams, pi0) == scalar_reports(n, streams, pi0)

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
        # replica 1 must equal a scalar bank fed only the first 4 rounds
        expected = scalar_reports(n, [streams[1][:4]], frozenset(range(n)))[0]
        assert bank.reports_json_of(1) == expected
        full_expected = scalar_reports(n, [streams[0]], frozenset(range(n)))[0]
        assert bank.reports_json_of(0) == full_expected

    def test_stop_after_held_matches_scalar_policy(self):
        import numpy as np

        from repro.predicates.batch import BatchMonitorBank
        from repro.predicates import build_monitor_bank

        n = 4
        streams = [random_mask_rounds(n, 15, 70 + seed, 0.5) for seed in range(5)]
        batch_bank = BatchMonitorBank(n, 5, ("p_k",), stop_after_held=3)
        scalar_banks = [
            build_monitor_bank(n, ("p_k",), stop_after_held=3) for _ in streams
        ]
        assert scalar_banks[0].stop_after_held == 3
        active = np.ones(5, dtype=bool)
        stops = [None] * 5
        for round in range(1, 16):
            batch_bank.observe_round(round, *round_arrays(n, streams, round), active)
            for r, bank in enumerate(scalar_banks):
                if stops[r] is None:
                    bank.observe_round(round, streams[r][round - 1])
                    if bank.stop_requested:
                        stops[r] = round
            active &= ~batch_bank.stop_array
        batch_stops = [
            None if not batch_bank.stop_array[r] else int(
                batch_bank.monitors[0].rounds_observed[r]
            )
            for r in range(5)
        ]
        assert batch_stops == stops


# --------------------------------------------------------------------------- #
# P_restr_otr: the array-form candidate table against the scalar dict
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
    """Feed *streams* to both duals; reports must agree after every round.

    Replica r is active for its first ``active_rounds[r]`` rounds (default:
    all); its scalar monitor simply stops being fed, which is what a
    finished scalar run looks like.  Returns the batched monitor.
    """
    import numpy as np

    from repro.predicates.batch import BatchMonitorBank

    replicas = len(streams)
    rounds = len(streams[0])
    active_rounds = active_rounds or [rounds] * replicas
    bank = BatchMonitorBank(n, replicas, ("p_restr_otr",))
    scalars = [build_monitor("p_restr_otr", n) for _ in streams]
    for round in range(1, rounds + 1):
        active = np.array([round <= limit for limit in active_rounds])
        bank.observe_round(round, *round_arrays(n, streams, round), active)
        for r, scalar in enumerate(scalars):
            if active[r]:
                scalar.observe(round, streams[r][round - 1])
            assert bank.reports_of(r)["p_restr_otr"] == scalar.report(), (round, r)
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
