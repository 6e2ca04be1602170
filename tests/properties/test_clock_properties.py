"""Property-based tests (hypothesis) for the clock algebra.

Mattern's theorem is the foundation of the whole detection algorithm, so the
partial-order laws of vector clocks and the lattice laws of the merge
operation are checked over randomly generated clocks rather than hand-picked
examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.comparator import ClockOrdering, compare_clocks, concurrent, max_clock, ordering

# Clocks over 1..6 processes with entries in 0..20.
clock_entries = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n)
)


def paired_entries(max_size=6):
    """Two entry lists of the same length."""
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 20), min_size=n, max_size=n),
            st.lists(st.integers(0, 20), min_size=n, max_size=n),
        )
    )


def triple_entries(max_size=5):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            *(st.lists(st.integers(0, 20), min_size=n, max_size=n) for _ in range(3))
        )
    )


class TestPartialOrderLaws:
    @given(clock_entries)
    def test_happens_before_is_irreflexive(self, entries):
        clock = VectorClock(entries)
        assert not clock.happens_before(clock)

    @given(paired_entries())
    def test_happens_before_is_antisymmetric(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        assert not (a.happens_before(b) and b.happens_before(a))

    @given(triple_entries())
    def test_happens_before_is_transitive(self, triple):
        a, b, c = (VectorClock(e) for e in triple)
        if a.happens_before(b) and b.happens_before(c):
            assert a.happens_before(c)

    @given(paired_entries())
    def test_trichotomy_of_ordering_classification(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        relation = ordering(a, b)
        # Exactly one classification, and it is consistent with the primitives.
        if relation is ClockOrdering.EQUAL:
            assert a == b
        elif relation is ClockOrdering.BEFORE:
            assert compare_clocks(a, b) and not compare_clocks(b, a)
        elif relation is ClockOrdering.AFTER:
            assert compare_clocks(b, a) and not compare_clocks(a, b)
        else:
            assert concurrent(a, b)

    @given(paired_entries())
    def test_concurrency_is_symmetric(self, pair):
        a, b = VectorClock(pair[0]), VectorClock(pair[1])
        assert concurrent(a, b) == concurrent(b, a)


class TestMergeLaws:
    @given(paired_entries())
    def test_merge_is_commutative(self, pair):
        assert max_clock(pair[0], pair[1]) == max_clock(pair[1], pair[0])

    @given(triple_entries())
    def test_merge_is_associative(self, triple):
        a, b, c = triple
        assert max_clock(max_clock(a, b), c) == max_clock(a, max_clock(b, c))

    @given(clock_entries)
    def test_merge_is_idempotent(self, entries):
        assert max_clock(entries, entries) == VectorClock(entries)

    @given(paired_entries())
    def test_merge_is_an_upper_bound(self, pair):
        merged = max_clock(pair[0], pair[1])
        assert merged.dominates(pair[0])
        assert merged.dominates(pair[1])

    @given(paired_entries())
    def test_merge_is_the_least_upper_bound(self, pair):
        merged = max_clock(pair[0], pair[1])
        entries = np.maximum(np.array(pair[0]), np.array(pair[1]))
        assert merged == VectorClock(entries)

    @given(clock_entries)
    def test_zero_is_the_identity(self, entries):
        zero = VectorClock.zeros(len(entries))
        assert max_clock(zero, entries) == VectorClock(entries)


class TestTickProperties:
    @given(clock_entries, st.integers(min_value=0, max_value=5))
    def test_tick_strictly_advances(self, entries, rank_seed):
        clock = VectorClock(entries)
        rank = rank_seed % clock.size
        before = clock.copy()
        clock.tick(rank)
        assert before.happens_before(clock)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=30))
    def test_matrix_clock_principal_reflects_all_local_events(self, size, events):
        clock = MatrixClock(rank=0, size=size)
        for _ in range(events):
            clock.tick()
        assert clock.local_component() == events
        assert clock.principal().component(0) == events


class TestSimulatedCausality:
    """Clocks driven by a random message history characterize causality exactly."""

    @given(
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_message_chain_implies_happens_before(self, world, raw_events, rng):
        """Sending a message always makes the send happen-before the receive."""
        clocks = [VectorClock.zeros(world) for _ in range(world)]
        snapshots = []
        for src_raw, dst_raw in raw_events:
            src, dst = src_raw % world, dst_raw % world
            if src == dst:
                clocks[src].tick(src)
                continue
            clocks[src].tick(src)
            send_snapshot = clocks[src].copy()
            clocks[dst].merge_in_place(send_snapshot)
            clocks[dst].tick(dst)
            snapshots.append((send_snapshot, clocks[dst].copy()))
        for send_clock, receive_clock in snapshots:
            assert send_clock.happens_before(receive_clock)


# -- the list-backed representation against a NumPy reference ------------------

# Two or three entry lists of one size in 1..32 (the representation must not
# depend on the clock being small).
def same_size_entries(count, max_size=32):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.tuples(
            *(st.lists(st.integers(0, 50), min_size=n, max_size=n) for _ in range(count))
        )
    )


def _np(entries):
    return np.array(entries, dtype=np.int64)


class TestAgreesWithNumPyReference:
    @given(same_size_entries(2))
    def test_merge(self, pair):
        a, b = pair
        expected = np.maximum(_np(a), _np(b)).tolist()
        assert VectorClock(a).merged(VectorClock(b)).entries.tolist() == expected
        assert VectorClock(a).merged(b).frozen() == tuple(expected)
        in_place = VectorClock(a)
        in_place.merge_in_place(_np(b))
        assert in_place.frozen() == tuple(expected)

    @given(same_size_entries(2))
    def test_comparisons(self, pair):
        a, b = _np(pair[0]), _np(pair[1])
        first, second = VectorClock(pair[0]), VectorClock(pair[1])
        before = bool(np.all(a <= b) and np.any(a < b))
        after = bool(np.all(b <= a) and np.any(b < a))
        assert first.dominates(second) == bool(np.all(a >= b))
        assert first.happens_before(second) == before
        assert first.strictly_less(second) == bool(np.all(a < b))
        assert first.concurrent_with(second) == (
            not before and not after and not np.array_equal(a, b)
        )
        assert (first == second) == bool(np.array_equal(a, b))

    @given(same_size_entries(1), st.integers(min_value=0, max_value=31))
    def test_tick(self, single, rank_seed):
        (entries,) = single
        rank = rank_seed % len(entries)
        expected = _np(entries)
        expected[rank] += 1
        assert VectorClock(entries).tick(rank).entries.tolist() == expected.tolist()

    @given(
        same_size_entries(3),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
        st.booleans(),
    )
    def test_matrix_observe_tick_and_lower_bound(self, triple, rank_seed, source_seed, with_source):
        size = len(triple[0])
        rank, source = rank_seed % size, source_seed % size
        clock = MatrixClock(rank, size)
        reference = np.zeros((size, size), dtype=np.int64)
        for received in triple:
            clock.tick()
            reference[rank, rank] += 1
            if with_source:
                returned = clock.observe_vector(VectorClock(received), source_rank=source)
                reference[source] = np.maximum(reference[source], _np(received))
            else:
                returned = clock.observe_vector(received)
            reference[rank] = np.maximum(reference[rank], _np(received))
            assert returned.entries.tolist() == reference[rank].tolist()
        assert clock.matrix.tolist() == reference.tolist()
        assert clock.principal().entries.tolist() == reference[rank].tolist()
        assert clock.row(source).entries.tolist() == reference[source].tolist()
        assert clock.known_lower_bound().entries.tolist() == reference.min(axis=0).tolist()
        assert clock.local_component() == reference[rank, rank]


#: Every MatrixClock method that hands out a vector clock.
HANDED_OUT = {
    "tick": lambda clock: clock.tick(),
    "principal": lambda clock: clock.principal(),
    "row": lambda clock: clock.row(clock.rank),
    "row-default": lambda clock: clock.row(),
    "observe_vector": lambda clock: clock.observe_vector([1] * clock.size),
    "observe_vector-source": lambda clock: clock.observe_vector(
        [1] * clock.size, source_rank=clock.rank
    ),
}


class TestNoSharedLists:
    """Returned clocks and the matrix never alias each other, either way."""

    @pytest.mark.parametrize("method", sorted(HANDED_OUT))
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=31))
    def test_handed_out_clock_is_detached_from_the_matrix(self, method, size, rank_seed):
        rank = rank_seed % size
        clock = MatrixClock(rank, size)
        clock.tick()
        view = HANDED_OUT[method](clock)
        matrix_before = clock.matrix.tolist()
        # Both ticks below increment an entry of the principal row in place.
        view.tick(rank)
        assert clock.matrix.tolist() == matrix_before
        view_before = view.frozen()
        clock.tick()
        assert view.frozen() == view_before
        # Two clocks handed out by the same call never share a list either.
        other = HANDED_OUT[method](clock)
        other_before = other.frozen()
        view.tick(rank)
        assert other.frozen() == other_before

    @given(st.integers(min_value=1, max_value=32))
    def test_copies_and_merges_are_detached(self, size):
        original = VectorClock.zeros(size)
        derived = [original.copy(), VectorClock(original), original.merged(original)]
        original.tick(0)
        assert all(view.frozen() == (0,) * size for view in derived)
        matrix = MatrixClock(0, size)
        clone = matrix.copy()
        clone.tick()
        assert matrix.local_component() == 0

    def test_observed_clock_is_not_captured(self):
        clock = MatrixClock(0, 3)
        received = VectorClock.from_entries([1, 2, 3])
        clock.observe_vector(received, source_rank=1)
        received.tick(2)
        assert clock.matrix.tolist() == [[1, 2, 3], [1, 2, 3], [0, 0, 0]]
