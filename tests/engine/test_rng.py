"""Unit tests for the named, isolated sub-streams of :class:`SeededRng`."""

from __future__ import annotations

from repro.engine.rng import SeededRng, derive_seed


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(7).stream("channel")
        b = SeededRng(7).stream("channel")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        rng = SeededRng(7)
        assert rng.stream("channel").random() != rng.stream("steps").random()

    def test_stream_isolation(self):
        """Draining one stream must not perturb another."""
        fresh = SeededRng(3).stream("faults")
        reference = [fresh.random() for _ in range(5)]
        rng = SeededRng(3)
        for _ in range(1000):
            rng.stream("channel").random()  # heavy traffic on another stream
        assert [rng.stream("faults").random() for _ in range(5)] == reference

    def test_derive_seed_is_stable(self):
        # Hash-derived, not `hash()`-derived: stable across processes/runs.
        assert derive_seed(0, "channel") == derive_seed(0, "channel")
        assert derive_seed(0, "channel") != derive_seed(1, "channel")

    def test_spawn_is_independent(self):
        parent = SeededRng(5)
        child = parent.spawn("worker")
        value = child.stream("x").random()
        assert value == SeededRng(derive_seed(5, "worker")).stream("x").random()
