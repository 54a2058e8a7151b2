"""Unit tests for the network layer (network_p / buffer_p / make-ready)."""

from __future__ import annotations

import pytest

from repro.sysmodel.network import BadPeriodNetwork, Envelope, Network
from repro.sysmodel.params import SynchronyParams
from repro.sysmodel.periods import GoodPeriodKind, PeriodSchedule


def make_network(n=3, schedule=None, **kwargs) -> Network:
    params = SynchronyParams(phi=1.0, delta=2.0)
    if schedule is None:
        schedule = PeriodSchedule.always_good(n)
    return Network(n=n, params=params, schedule=schedule, **kwargs)


class TestBadPeriodNetwork:
    def test_validation(self):
        with pytest.raises(ValueError):
            BadPeriodNetwork(loss_probability=1.5)
        with pytest.raises(ValueError):
            BadPeriodNetwork(min_delay=5.0, max_delay=1.0)

    def test_certain_loss_and_certain_delivery(self):
        import random

        rng = random.Random(0)
        assert BadPeriodNetwork(loss_probability=1.0).sample_delay(rng) is None
        delay = BadPeriodNetwork(loss_probability=0.0, min_delay=1.0, max_delay=2.0).sample_delay(rng)
        assert 1.0 <= delay <= 2.0


class TestSendAndMakeReady:
    def test_send_puts_message_in_every_receiver_network_set(self):
        network = make_network()
        envelopes = network.send(0, [0, 1, 2], "hello", time=1.0)
        assert len(envelopes) == 3
        for p in range(3):
            assert len(network.network[p]) == 1
            assert network.buffer[p] == []
        assert network.messages_sent == 3

    def test_plan_delivery_in_good_period_respects_delta(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) == pytest.approx(5.0 + 2.0)

    def test_plan_delivery_scaled_by_good_delay_factor(self):
        network = make_network(good_delay_factor=0.5)
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) == pytest.approx(5.0 + 1.0)

    def test_plan_delivery_in_bad_period_can_drop(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=100.0, length=10.0, kind=GoodPeriodKind.PI_GOOD
        )
        network = make_network(
            schedule=schedule, bad_behavior=BadPeriodNetwork(loss_probability=1.0)
        )
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) is None
        assert network.messages_dropped == 1

    def test_plan_delivery_outside_pi0_uses_bad_behavior(self):
        schedule = PeriodSchedule.always_good(
            3, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=[0, 1]
        )
        network = make_network(
            schedule=schedule, bad_behavior=BadPeriodNetwork(loss_probability=1.0)
        )
        # Sender 2 is outside pi0: its message gets the bad-period treatment.
        envelope = network.send(2, [0], "m", time=1.0)[0]
        assert network.plan_delivery(envelope) is None
        # Between pi0 members the delta bound applies.
        envelope2 = network.send(0, [1], "m", time=1.0)[0]
        assert network.plan_delivery(envelope2) == pytest.approx(3.0)

    def test_make_ready_moves_message_to_buffer(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        assert network.make_ready(envelope)
        assert network.network[1] == []
        assert network.buffer[1] == [envelope]
        assert network.messages_made_ready == 1

    def test_make_ready_after_purge_is_a_noop(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        network.purge_process_state(1)
        assert not network.make_ready(envelope)
        assert network.buffer[1] == []

    def test_make_ready_after_sender_purge_is_a_noop(self):
        network = make_network()
        doomed = network.send(0, [1], "m", time=0.0)[0]
        kept = network.send(2, [1], "m", time=0.0)[0]
        assert network.purge_messages_from([0]) == 1
        assert not network.make_ready(doomed)
        assert network.make_ready(kept)
        assert network.buffer[1] == [kept]
        assert network.messages_made_ready == 1

    def test_removal_is_by_identity_not_by_value(self):
        """Two copies equal in every field but ``sequence``-distinct in the
        network are different messages: removing one must leave the other,
        and a look-alike that was never sent must not match either."""
        network = make_network()
        first, second = network.send(0, [1, 1], "same", time=0.0)
        assert first is not second and first != second
        lookalike = Envelope(0, 1, "same", 0.0, first.sequence)
        assert not network.make_ready(lookalike)
        assert network.make_ready(second)
        assert network.network[1] == [first]
        assert network.buffer[1] == [second]
        # A made-ready message is no longer in transit ...
        assert not network.make_ready(second)
        # ... and after a crash purge neither copy can be made ready.
        network.purge_process_state(1)
        assert not network.make_ready(first)
        assert not network.make_ready(second)
        assert network.buffer[1] == []
        assert network.messages_made_ready == 1

    def test_plan_delivery_with_a_resolved_period_matches_the_lookup(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=10.0, length=10.0, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=[0, 1]
        )
        behavior = BadPeriodNetwork(loss_probability=0.5, min_delay=1.0, max_delay=9.0)
        looked_up = make_network(schedule=schedule, bad_behavior=behavior, seed=3)
        resolved = make_network(schedule=schedule, bad_behavior=behavior, seed=3)
        for time in (0.0, 9.5, 10.0, 15.0, 20.0, 25.0):
            for sender, receiver in ((0, 1), (0, 2), (2, 0)):
                a = looked_up.send(sender, [receiver], "m", time=time)[0]
                b = resolved.send(sender, [receiver], "m", time=time)[0]
                assert looked_up.plan_delivery(a) == resolved.plan_delivery(
                    b, schedule.period_at(time)
                )
        assert looked_up.messages_dropped == resolved.messages_dropped

    def test_take_from_buffer(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        network.make_ready(envelope)
        network.take_from_buffer(1, envelope)
        assert network.buffer[1] == []


class TestPurges:
    def test_purge_messages_from_senders(self):
        network = make_network()
        network.send(0, [1, 2], "from-0", time=0.0)
        kept = network.send(1, [2], "from-1", time=0.0)[0]
        network.make_ready(kept)
        purged = network.purge_messages_from([0])
        assert purged == 2
        assert network.network[1] == []
        assert network.buffer[2] == [kept]

    def test_purge_process_state_clears_both_sets(self):
        network = make_network()
        first, second = network.send(0, [1, 1], "m", time=0.0)
        network.make_ready(first)
        network.purge_process_state(1)
        assert network.network[1] == []
        assert network.buffer[1] == []

    def test_good_delay_factor_validation(self):
        with pytest.raises(ValueError):
            make_network(good_delay_factor=0.0)
        with pytest.raises(ValueError):
            make_network(good_delay_factor=1.5)
