"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import tracemalloc
from typing import Callable, Dict, Iterable, Mapping, Sequence

import pytest

from repro.core.types import HOCollection


def make_collection(n: int, rounds: Sequence[Mapping[int, Iterable[int]]]) -> HOCollection:
    """Build an :class:`HOCollection` from a list of per-round HO-set mappings.

    ``rounds[k]`` describes round ``k+1``: a mapping ``process -> HO set``.
    Processes missing from a round's mapping get the full process set.
    """
    collection = HOCollection(n)
    for index, ho_sets in enumerate(rounds):
        round_number = index + 1
        for process in range(n):
            ho = ho_sets.get(process, range(n))
            collection.record(process, round_number, ho)
    return collection


def steady_state_peak_growth(
    build: Callable[[], Callable[[int], object]],
    warm_up: Sequence[int] = (1, 2),
    steady: Sequence[int] = (3, 4, 5),
) -> int:
    """Bytes the traced peak grows over the *steady* rounds of a round function.

    *build* runs under tracing and returns ``call(round)``, so whatever it
    allocates once -- state arrays, lazily built scratch touched by the
    *warm_up* rounds -- is part of the settled level the growth is measured
    from.  What is left is what one round allocates transiently.
    """
    tracemalloc.start()
    try:
        call = build()
        for round in warm_up:
            call(round)
        settled, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for round in steady:
            call(round)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - settled


def count_compactions(patch: pytest.MonkeyPatch, kernel_class: type) -> list:
    """Record ``(rows before, keep)`` of every ``kernel_class.compact`` under *patch*."""
    taken = []
    compact = kernel_class.compact

    def counting_compact(kernel, keep):
        taken.append((kernel.replicas, [int(i) for i in keep]))
        return compact(kernel, keep)

    patch.setattr(kernel_class, "compact", counting_compact)
    return taken


def uniform_round(n: int, ho: Iterable[int]) -> Dict[int, Iterable[int]]:
    """A per-round mapping where every process has the same HO set."""
    ho_list = list(ho)
    return {process: ho_list for process in range(n)}


@pytest.fixture
def small_n() -> int:
    """A conveniently small system size used across unit tests."""
    return 4
