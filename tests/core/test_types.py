"""Unit tests for the basic HO-model types."""

from __future__ import annotations

import pytest

from repro.core.types import (
    HOCollection,
    RoundRecord,
    RunTrace,
    all_processes,
    validate_process_subset,
)


class TestAllProcesses:
    def test_full_set(self):
        assert all_processes(4) == frozenset({0, 1, 2, 3})

    def test_single_process(self):
        assert all_processes(1) == frozenset({0})

    @pytest.mark.parametrize("n", [0, -1, -10])
    def test_rejects_non_positive_sizes(self, n):
        with pytest.raises(ValueError):
            all_processes(n)


class TestValidateProcessSubset:
    def test_accepts_valid_subset(self):
        assert validate_process_subset([0, 2], 4) == frozenset({0, 2})

    def test_accepts_empty_subset(self):
        assert validate_process_subset([], 4) == frozenset()

    def test_rejects_out_of_range_processes(self):
        with pytest.raises(ValueError, match="outside"):
            validate_process_subset([0, 4], 4)

    def test_rejects_negative_processes(self):
        with pytest.raises(ValueError):
            validate_process_subset([-1], 4)


class TestHOCollection:
    def test_unrecorded_ho_set_is_empty(self):
        collection = HOCollection(3)
        assert collection.ho(0, 1) == frozenset()
        assert not collection.has_record(0, 1)

    def test_record_and_query(self):
        collection = HOCollection(3)
        collection.record(0, 1, [0, 1])
        assert collection.ho(0, 1) == frozenset({0, 1})
        assert collection.has_record(0, 1)
        assert collection.max_round == 1

    def test_record_overwrites(self):
        collection = HOCollection(3)
        collection.record(0, 1, [0])
        collection.record(0, 1, [0, 1, 2])
        assert collection.ho(0, 1) == frozenset({0, 1, 2})

    def test_max_round_tracks_largest_round(self):
        collection = HOCollection(3)
        collection.record(1, 5, [0])
        collection.record(2, 3, [0])
        assert collection.max_round == 5
        assert list(collection.rounds()) == [1, 2, 3, 4, 5]

    def test_rejects_bad_round_numbers(self):
        collection = HOCollection(3)
        with pytest.raises(ValueError):
            collection.record(0, 0, [0])

    def test_rejects_unknown_processes(self):
        collection = HOCollection(3)
        with pytest.raises(ValueError):
            collection.record(3, 1, [0])
        with pytest.raises(ValueError):
            collection.record(0, 1, [7])

    def test_kernel_is_intersection(self):
        collection = HOCollection(3)
        collection.record(0, 1, [0, 1, 2])
        collection.record(1, 1, [0, 1])
        collection.record(2, 1, [1, 2])
        assert collection.kernel(1) == frozenset({1})

    def test_kernel_with_scope(self):
        collection = HOCollection(3)
        collection.record(0, 1, [0, 1, 2])
        collection.record(1, 1, [0, 1])
        collection.record(2, 1, [2])
        assert collection.kernel(1, scope=[0, 1]) == frozenset({0, 1})

    def test_space_uniformity(self):
        collection = HOCollection(3)
        for p in range(3):
            collection.record(p, 1, [0, 1])
        assert collection.is_space_uniform(1)
        collection.record(2, 2, [2])
        collection.record(0, 2, [0, 1])
        collection.record(1, 2, [0, 1])
        assert not collection.is_space_uniform(2)
        assert collection.is_space_uniform(2, scope=[0, 1])

    def test_restrict_projects_onto_scope(self):
        collection = HOCollection(4)
        collection.record(0, 1, [0, 1, 3])
        collection.record(1, 1, [0, 1, 2])
        restricted = collection.restrict([0, 1])
        assert restricted.ho(0, 1) == frozenset({0, 1})
        assert restricted.ho(1, 1) == frozenset({0, 1})
        # Processes outside the scope are not carried over.
        assert not restricted.has_record(2, 1)

    def test_equality(self):
        a = HOCollection(2)
        b = HOCollection(2)
        a.record(0, 1, [0])
        b.record(0, 1, [0])
        assert a == b
        b.record(1, 1, [0, 1])
        assert a != b


class TestRunTrace:
    def test_decisions_and_rounds(self):
        trace = RunTrace(n=2, ho_collection=HOCollection(2))
        trace.records.append(RoundRecord(0, 1, 0b11, "s", None))
        trace.records.append(RoundRecord(0, 2, 0b11, "s", 42))
        trace.records.append(RoundRecord(1, 2, 0b11, "s", 42))
        assert trace.decisions() == {0: 42, 1: 42}
        assert trace.decision_rounds() == {0: 2, 1: 2}
        assert trace.all_decided()
        assert trace.all_decided(scope=[0])

    def test_all_decided_false_when_someone_missing(self):
        trace = RunTrace(n=2, ho_collection=HOCollection(2))
        trace.records.append(RoundRecord(0, 1, 0, "s", 1))
        assert not trace.all_decided()
        assert trace.all_decided(scope=[0])
