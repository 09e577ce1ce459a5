"""Hypothesis property tests for the event queue.

The queue is the substrate every protocol trajectory rests on, so its
contract is pinned down property-style: pops come out time-ordered,
ties break FIFO by insertion order, tombstoned events never dispatch,
and ``peek_time``/``pop`` agree under arbitrary interleavings of
pushes, cancels, peeks, and pops.  A bulk ``push_many`` block must be
observationally identical to the same entries pushed one by one, under
arbitrary interleavings with scalar pushes, cancels, and pops.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import EventQueue

times = st.floats(min_value=0, max_value=1e6, allow_nan=False)


def noop() -> None:
    pass


class TestOrdering:
    @given(st.lists(times, min_size=1, max_size=200))
    def test_pop_order_is_sorted(self, schedule):
        queue = EventQueue()
        for time in schedule:
            queue.push(time, noop)
        popped = [queue.pop()[0] for _ in range(len(schedule))]
        assert popped == sorted(schedule)

    @given(st.lists(times, min_size=1, max_size=100), st.integers(2, 10))
    def test_equal_timestamps_pop_fifo(self, schedule, dupes):
        # Duplicate every timestamp several times; payloads record the
        # insertion order, which must be preserved within each tie.
        queue = EventQueue()
        order = 0
        for time in schedule:
            for _ in range(dupes):
                queue.push(time, noop, order)
                order += 1
        popped = [queue.pop() for _ in range(order)]
        assert [entry[0] for entry in popped] == sorted(
            entry[0] for entry in popped
        )
        for first, second in zip(popped, popped[1:]):
            if first[0] == second[0]:
                assert first[3] < second[3]  # FIFO within the tie


class TestCancellation:
    @given(
        st.lists(times, min_size=2, max_size=60),
        st.data(),
    )
    def test_tombstoned_events_never_pop(self, schedule, data):
        queue = EventQueue()
        handles = [queue.push(time, noop, index) for index, time in enumerate(schedule)]
        to_cancel = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=len(handles) - 1),
                max_size=len(handles),
            )
        )
        for index in to_cancel:
            queue.cancel(handles[index])
        live = sorted(
            (time, index)
            for index, time in enumerate(schedule)
            if index not in to_cancel
        )
        popped = []
        while queue:
            entry = queue.pop()
            popped.append((entry[0], entry[3]))
            assert entry[3] not in to_cancel
        assert popped == live
        assert len(queue) == 0

    @given(st.lists(times, min_size=1, max_size=60))
    def test_cancel_all_empties_queue(self, schedule):
        queue = EventQueue()
        handles = [queue.push(time, noop) for time in schedule]
        for handle in handles:
            queue.cancel(handle)
        assert not queue
        assert queue.peek_time() is None


@st.composite
def operations(draw):
    """A random interleaving of push/cancel/peek/pop operations."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), times),
                st.tuples(st.just("cancel"), st.integers(0, 200)),
                st.tuples(st.just("peek"), st.none()),
                st.tuples(st.just("pop"), st.none()),
            ),
            min_size=1,
            max_size=120,
        )
    )


class TestPeekPopConsistency:
    @settings(max_examples=200)
    @given(operations())
    def test_peek_matches_next_pop_under_interleaving(self, ops):
        queue = EventQueue()
        handles: list[int] = []
        cancelled: set[int] = set()
        for op, value in ops:
            if op == "push":
                handles.append(queue.push(value, noop))
            elif op == "cancel" and handles:
                handle = handles[value % len(handles)]
                queue.cancel(handle)
                cancelled.add(handle)
            elif op == "peek":
                expected = queue.peek_time()
                if expected is None:
                    assert not queue
                else:
                    assert queue  # a live event exists
            elif op == "pop" and queue:
                peeked = queue.peek_time()
                time, seq, _, _ = queue.pop()
                assert time == peeked
                assert seq not in cancelled
        # Drain: whatever survives must still be ordered and live.
        previous = float("-inf")
        while queue:
            time, seq, _, _ = queue.pop()
            assert time >= previous
            assert seq not in cancelled
            previous = time


@st.composite
def mixed_operations(draw):
    """Interleaved scalar pushes, bulk pushes, cancels, and pops."""
    ops = []
    pushed = 0
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["push", "push_many", "cancel", "pop"]))
        if kind == "push":
            ops.append(("push", draw(times)))
            pushed += 1
        elif kind == "push_many":
            block = draw(st.lists(times, min_size=0, max_size=12))
            ops.append(("push_many", block))
            pushed += len(block)
        elif kind == "cancel":
            ops.append(("cancel", draw(st.integers(0, max(0, pushed + 3)))))
        else:
            ops.append(("pop", None))
    return ops


class TestPushMany:
    """``push_many`` blocks behave exactly like scalar pushes — same pop
    order (time + FIFO tie-break + payload), same peeks, same sizes,
    same tombstone semantics."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_operations())
    def test_block_matches_scalar_pushes(self, ops):
        reference = EventQueue()
        batched = EventQueue()
        for op, arg in ops:
            if op == "push":
                assert reference.push(arg, noop, arg) == batched.push(arg, noop, arg)
            elif op == "push_many":
                for time in arg:
                    reference.push(time, noop, time)
                handles = batched.push_many(arg, noop, list(arg))
                assert len(handles) == len(arg)
            elif op == "cancel":
                reference.cancel(arg)
                batched.cancel(arg)
            else:
                assert len(reference) == len(batched)
                assert reference.peek_time() == batched.peek_time()
                if reference:
                    left = reference.pop()
                    right = batched.pop()
                    assert left[:2] == right[:2]
                    assert left[3] == right[3]
        # Drain both completely: every remaining event agrees too.
        while reference or batched:
            left = reference.pop()
            right = batched.pop()
            assert left[:2] == right[:2]
            assert left[3] == right[3]

    @given(st.lists(times, min_size=1, max_size=50))
    def test_bulk_block_pops_sorted_with_fifo_ties(self, block):
        queue = EventQueue()
        queue.push_many(block, noop, list(range(len(block))))
        popped = [queue.pop() for _ in range(len(block))]
        assert [entry[0] for entry in popped] == sorted(block)
        for first, second in zip(popped, popped[1:]):
            if first[0] == second[0]:
                assert first[3] < second[3]  # FIFO within the tie

    @given(st.lists(times, min_size=1, max_size=30), st.data())
    def test_cancelled_bulk_events_never_pop(self, block, data):
        queue = EventQueue()
        handles = list(queue.push_many(block, noop))
        doomed = set(data.draw(st.lists(st.sampled_from(handles), max_size=10)))
        for handle in doomed:
            queue.cancel(handle)
        assert len(queue) == len(block) - len(doomed)
        survivors = {entry[1] for entry in queue.drain()}
        assert survivors == set(handles) - doomed
