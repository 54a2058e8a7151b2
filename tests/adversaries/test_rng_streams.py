"""Oracle randomness flows through SeededRng named sub-streams.

One run seed controls every layer, and draws on one oracle concern are
isolated from every other concern -- the properties that make A/B
experiments comparable and replay debugging possible.
"""

from __future__ import annotations

from repro.adversaries import (
    CounterKernelOracle,
    GoodPeriodOracle,
    MobileOmissionOracle,
    RandomOmissionOracle,
)
from repro.engine.rng import SeededRng


def snapshot(oracle, rounds=8, n=None):
    n = n if n is not None else oracle.n
    return [oracle(r, p) for r in range(1, rounds + 1) for p in range(n)]


class TestSeedPlumbing:
    def test_seed_and_rng_spellings_agree(self):
        by_seed = RandomOmissionOracle(5, 0.4, seed=12)
        by_rng = RandomOmissionOracle(5, 0.4, rng=SeededRng(12))
        assert snapshot(by_seed) == snapshot(by_rng)

    def test_one_master_rng_controls_several_oracles(self):
        def build(seed):
            rng = SeededRng(seed)
            return (
                MobileOmissionOracle(6, faults=2, rng=rng.spawn("mobile")),
                RandomOmissionOracle(6, 0.3, rng=rng.spawn("loss")),
            )

        mobile_a, loss_a = build(7)
        mobile_b, loss_b = build(7)
        assert snapshot(mobile_a) == snapshot(mobile_b)
        assert snapshot(loss_a) == snapshot(loss_b)

    def test_different_seeds_differ(self):
        a = RandomOmissionOracle(6, 0.5, seed=1)
        b = RandomOmissionOracle(6, 0.5, seed=2)
        assert snapshot(a) != snapshot(b)


class TestStreamIsolation:
    def test_loss_draws_do_not_perturb_partition_draws(self):
        """Changing the loss model must not move partitions in time.

        GoodPeriodOracle draws loss from ``oracle.loss`` and partition
        events from ``oracle.partition``.  With a shared private RNG (the
        pre-refactor arrangement) changing the loss probability would shift
        every later partition draw; with named sub-streams the chosen
        partition halves are identical.

        Observed through the outputs: with ``bad_loss_probability=0.0`` and
        ``bad_partition_probability=1.0`` every bad cell's HO set is exactly
        its partition half (plus self).  A lossy run with the same seed
        consumes very different amounts of loss randomness, yet its HO sets
        must stay *inside* the same halves -- which fails with overwhelming
        probability if the halves were re-drawn from a perturbed stream.
        """

        def build(bad_loss):
            return GoodPeriodOracle(
                6,
                pi0=[0, 1, 2, 3],
                good_from=100,
                bad_loss_probability=bad_loss,
                bad_partition_probability=1.0,
                seed=5,
            )

        lossless = build(0.0)
        lossy = build(0.7)
        for r in range(1, 12):
            for p in range(6):
                half = lossless(r, p)  # the partition half, exactly
                assert lossy(r, p) <= half

    def test_kernel_oracle_uses_its_own_stream(self):
        # Two oracles sharing one master seed but different concerns draw
        # from disjoint streams: instantiating one never changes the other.
        rng = SeededRng(3)
        kernel = CounterKernelOracle(5, pi0=[0, 1, 2], rng=rng)
        loss = RandomOmissionOracle(5, 0.4, rng=rng)
        kernel_alone = CounterKernelOracle(5, pi0=[0, 1, 2], rng=SeededRng(3))
        loss_alone = RandomOmissionOracle(5, 0.4, rng=SeededRng(3))
        assert snapshot(kernel) == snapshot(kernel_alone)
        assert snapshot(loss) == snapshot(loss_alone)
