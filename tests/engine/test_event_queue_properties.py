"""Hypothesis property tests for the simulator's event heap.

The heap is the substrate every protocol trajectory rests on, so its
contract is pinned down property-style: events dispatch in time order,
ties dispatch FIFO by scheduling order, and a ``schedule_many_at`` block
is observationally identical to the same events scheduled one by one
under arbitrary interleavings with scalar schedules and dispatches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import Simulator

times = st.floats(min_value=0, max_value=1e6, allow_nan=False)


def recording_sim():
    """A simulator, a ``(now, payload)`` log, and the action that fills it."""
    sim = Simulator()
    log: list = []

    def record(payload) -> None:
        log.append((sim.now, payload))

    return sim, log, record


def assert_time_order_fifo_ties(log: list) -> None:
    """Times never decrease, and the payload order numbers break ties."""
    for (time, order), (next_time, next_order) in zip(log, log[1:]):
        assert time <= next_time
        if time == next_time:
            assert order < next_order  # FIFO within the tie


class TestOrdering:
    @given(st.lists(times, min_size=1, max_size=200))
    def test_pop_order_is_sorted(self, schedule):
        sim, log, record = recording_sim()
        for time in schedule:
            sim.schedule(time, record, time)
        sim.run()
        assert [time for time, _ in log] == sorted(schedule)

    @given(st.lists(times, min_size=1, max_size=100), st.integers(2, 10))
    def test_equal_timestamps_pop_fifo(self, schedule, dupes):
        # Duplicate every timestamp several times; payloads record the
        # scheduling order, which must be preserved within each tie.
        sim, log, record = recording_sim()
        order = 0
        for time in schedule:
            for _ in range(dupes):
                sim.schedule(time, record, order)
                order += 1
        sim.run()
        assert len(log) == order
        assert_time_order_fifo_ties(log)


@st.composite
def mixed_operations(draw):
    """Interleaved scalar schedules, bulk schedules and single dispatches.

    Times are delays from the clock at the moment of the operation.
    """
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["schedule", "schedule_many_at", "dispatch"]))
        if kind == "schedule":
            ops.append(("schedule", draw(times)))
        elif kind == "schedule_many_at":
            ops.append(("schedule_many_at", draw(st.lists(times, max_size=12))))
        else:
            ops.append(("dispatch", None))
    return ops


class TestPushMany:
    """``schedule_many_at`` blocks behave exactly like scalar schedules —
    same sequence numbers, same heap, same dispatch order."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_operations())
    def test_block_matches_scalar_pushes(self, ops):
        reference, reference_log, reference_record = recording_sim()
        batched, batched_log, batched_record = recording_sim()
        for op, arg in ops:
            if op == "schedule":
                time = reference.now + arg
                assert reference.schedule(time, reference_record, time) == batched.schedule(
                    time, batched_record, time
                )
            elif op == "schedule_many_at":
                block = [reference.now + delay for delay in arg]
                seqs = [reference.schedule(time, reference_record, time) for time in block]
                assert list(batched.schedule_many_at(block, batched_record, block)) == seqs
            else:
                reference.run(max_events=1)
                batched.run(max_events=1)
            assert reference_log == batched_log
            assert [entry[:2] + entry[3:] for entry in reference._heap] == [
                entry[:2] + entry[3:] for entry in batched._heap
            ]
            assert reference._next_seq == batched._next_seq
        reference.run()
        batched.run()
        assert reference_log == batched_log

    @given(st.lists(times, min_size=1, max_size=50))
    def test_bulk_block_pops_sorted_with_fifo_ties(self, block):
        sim, log, record = recording_sim()
        sim.schedule_many_at(block, record, list(range(len(block))))
        sim.run()
        assert [time for time, _ in log] == sorted(block)
        assert_time_order_fifo_ties(log)
