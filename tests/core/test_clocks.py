"""Unit tests for Lamport, vector and matrix clocks."""

import numpy as np
import pytest

from repro.core.clocks import LamportClock, MatrixClock, VectorClock


class TestLamportClock:
    def test_starts_at_given_value(self):
        assert LamportClock().value == 0
        assert LamportClock(5).value == 5

    def test_tick_increments(self):
        clock = LamportClock()
        assert clock.tick() == 1
        assert clock.tick() == 2

    def test_observe_takes_max_plus_one(self):
        clock = LamportClock(3)
        assert clock.observe(10) == 11
        assert clock.observe(2) == 12

    def test_copy_is_independent(self):
        clock = LamportClock(1)
        copy = clock.copy()
        clock.tick()
        assert copy.value == 1

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            LamportClock(-1)


class TestVectorClockConstruction:
    def test_zeros(self):
        clock = VectorClock.zeros(4)
        assert clock.size == 4
        assert clock.total() == 0

    def test_from_entries(self):
        clock = VectorClock.from_entries([1, 2, 3])
        assert clock.entries.tolist() == [1, 2, 3]

    def test_copy_constructor(self):
        original = VectorClock.from_entries([1, 0, 2])
        clone = VectorClock(original)
        clone.tick(0)
        assert original.component(0) == 1

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            VectorClock([1, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VectorClock([])

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            VectorClock(0)


class TestVectorClockOperations:
    def test_tick_increments_one_component(self):
        clock = VectorClock.zeros(3)
        clock.tick(1)
        clock.tick(1)
        assert clock.entries.tolist() == [0, 2, 0]

    def test_tick_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zeros(3).tick(3)

    def test_merge_is_componentwise_max(self):
        a = VectorClock.from_entries([1, 5, 0])
        b = VectorClock.from_entries([3, 2, 4])
        assert a.merged(b).entries.tolist() == [3, 5, 4]

    def test_merge_in_place_mutates(self):
        a = VectorClock.from_entries([1, 0])
        a.merge_in_place([0, 7])
        assert a.entries.tolist() == [1, 7]

    def test_merge_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorClock.zeros(2).merged(VectorClock.zeros(3))

    def test_frozen_is_hashable_tuple(self):
        clock = VectorClock.from_entries([1, 2])
        assert clock.frozen() == (1, 2)
        assert hash(clock) == hash(VectorClock.from_entries([1, 2]))

    def test_entries_returns_copy(self):
        clock = VectorClock.from_entries([1, 2])
        entries = clock.entries
        entries[0] = 99
        assert clock.component(0) == 1


class TestVectorClockOrdering:
    def test_happens_before_strict_partial_order(self):
        small = VectorClock.from_entries([1, 0, 0])
        big = VectorClock.from_entries([1, 2, 0])
        assert small.happens_before(big)
        assert not big.happens_before(small)
        assert not small.happens_before(small)

    def test_concurrent_when_incomparable(self):
        a = VectorClock.from_entries([1, 0])
        b = VectorClock.from_entries([0, 1])
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_equal_clocks_not_concurrent(self):
        a = VectorClock.from_entries([2, 2])
        assert not a.concurrent_with(VectorClock.from_entries([2, 2]))

    def test_strictly_less_requires_all_components(self):
        a = VectorClock.from_entries([1, 1])
        b = VectorClock.from_entries([2, 2])
        c = VectorClock.from_entries([2, 1])
        assert a.strictly_less(b)
        assert not a.strictly_less(c)

    def test_dominates_is_reflexive(self):
        a = VectorClock.from_entries([1, 2])
        assert a.dominates(a)

    def test_equality_against_lists(self):
        assert VectorClock.from_entries([1, 2]) == [1, 2]
        assert VectorClock.from_entries([1, 2]) != [2, 1]

    def test_str_compact_for_small_clocks(self):
        assert str(VectorClock.from_entries([1, 1, 0])) == "110"


class TestMatrixClock:
    def test_initially_zero(self):
        clock = MatrixClock(rank=1, size=3)
        assert clock.local_component() == 0
        assert clock.principal().total() == 0

    def test_tick_increments_diagonal_and_returns_principal(self):
        clock = MatrixClock(rank=2, size=3)
        view = clock.tick()
        assert view.entries.tolist() == [0, 0, 1]
        assert clock.local_component() == 1

    def test_observe_vector_merges_principal_row(self):
        clock = MatrixClock(rank=0, size=3)
        clock.tick()
        clock.observe_vector([0, 5, 2])
        assert clock.principal().entries.tolist() == [1, 5, 2]

    def test_observe_vector_records_source_row(self):
        clock = MatrixClock(rank=0, size=3)
        clock.observe_vector([0, 4, 0], source_rank=1)
        assert clock.row(1).entries.tolist() == [0, 4, 0]

    def test_observe_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            MatrixClock(0, 3).observe_vector([1, 2])

    def test_known_lower_bound_is_columnwise_min(self):
        clock = MatrixClock(rank=0, size=2)
        clock.observe_vector([3, 1])
        clock.observe_vector([2, 4], source_rank=1)
        # rows: [3,4] (principal after merges) and [2,4]
        assert clock.known_lower_bound().entries.tolist() == [2, 4]

    def test_storage_entries_is_n_squared(self):
        assert MatrixClock(0, 5).storage_entries() == 25

    def test_copy_is_independent(self):
        clock = MatrixClock(0, 2)
        clone = clock.copy()
        clock.tick()
        assert clone.local_component() == 0

    def test_rank_must_be_valid(self):
        with pytest.raises(ValueError):
            MatrixClock(rank=3, size=3)


class TestEntryTypes:
    """Entries must be integers: nothing is truncated or parsed on the way in."""

    @pytest.mark.parametrize(
        "entries",
        [[1.7, 2], ["3", 4], [True, 0], [1, 2.0], np.array([1.5, 2.0]), np.array([True, False])],
        ids=["float", "str", "bool", "integral-float", "float-array", "bool-array"],
    )
    def test_vector_clock_rejects_non_integer_entries(self, entries):
        with pytest.raises(TypeError):
            VectorClock(entries)

    def test_from_entries_rejects_floats(self):
        with pytest.raises(TypeError):
            VectorClock.from_entries([0.5, 1])

    def test_observe_vector_rejects_floats_without_merging(self):
        clock = MatrixClock(rank=0, size=3)
        with pytest.raises(TypeError):
            clock.observe_vector([0.9, 2.5, 1])
        assert clock.matrix.tolist() == [[0, 0, 0]] * 3

    def test_merge_rejects_floats(self):
        clock = VectorClock.zeros(2)
        with pytest.raises(TypeError):
            clock.merge_in_place([0.9, 2.5])
        with pytest.raises(TypeError):
            clock.merged(["1", "2"])
        assert clock.frozen() == (0, 0)

    def test_comparisons_reject_floats(self):
        with pytest.raises(TypeError):
            VectorClock.zeros(2).happens_before([0.5, 1.5])

    def test_equality_with_a_float_list_is_false(self):
        assert VectorClock.from_entries([1, 2]) != [1.0, 2.0]

    def test_numpy_integer_entries_are_accepted_as_int(self):
        clock = VectorClock([np.int64(3), np.int32(4), 5])
        assert clock.frozen() == (3, 4, 5)
        assert all(type(value) is int for value in clock.frozen())
        from_array = VectorClock(np.array([1, 2], dtype=np.uint8))
        assert from_array.frozen() == (1, 2)
        assert all(type(value) is int for value in from_array.frozen())

    def test_nested_entries_rejected(self):
        with pytest.raises(TypeError):
            VectorClock([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            VectorClock(np.zeros((2, 2), dtype=np.int64))

    def test_public_views_are_int64_arrays(self):
        clock = MatrixClock(rank=1, size=2)
        clock.tick()
        assert clock.matrix.dtype == np.int64
        assert clock.principal().entries.dtype == np.int64
