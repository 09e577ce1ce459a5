"""Unit tests for the simulator's event heap: order, ties, sequence numbers."""

from __future__ import annotations

import math

import pytest

from repro.engine.simulator import Simulator
from repro.errors import SchedulingError


def noop() -> None:
    pass


def recording_sim():
    """A simulator, a ``(now, payload)`` log, and the action that fills it."""
    sim = Simulator()
    log: list = []

    def record(payload) -> None:
        log.append((sim.now, payload))

    return sim, log, record


class TestEventQueueBasics:
    def test_empty_queue_is_falsy(self):
        sim = Simulator()
        assert not sim._heap
        assert sim.run() == 0.0
        assert sim.events_executed == 0

    def test_push_pop_single(self):
        sim, log, record = recording_sim()
        seq = sim.schedule(1.5, record, "payload")
        assert sim._heap == [(1.5, seq, record, "payload")]
        sim.run()
        assert log == [(1.5, "payload")]
        assert not sim._heap

    def test_orders_by_time(self):
        sim, log, record = recording_sim()
        sim.schedule(3.0, record, "late")
        sim.schedule(1.0, record, "early")
        sim.schedule(2.0, record, "mid")
        sim.run()
        assert [payload for _, payload in log] == ["early", "mid", "late"]

    def test_ties_are_fifo(self):
        sim, log, record = recording_sim()
        for index in range(10):
            sim.schedule(1.0, record, index)
        sim.run()
        assert [payload for _, payload in log] == list(range(10))

    def test_handles_are_monotonic(self):
        sim = Simulator()
        seqs = [sim.schedule(0.0, noop) for _ in range(3)]
        seqs.append(sim.schedule_in(0.0, noop))
        seqs.extend(sim.schedule_many_at([0.0, 0.0], noop))
        seqs.append(sim.reserve_seq())
        seqs.append(sim.schedule(0.0, noop))
        assert seqs == list(range(8))
        assert sim._next_seq == 8

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(math.nan, noop)
        with pytest.raises(SchedulingError):
            sim.schedule_in(math.nan, noop)
        with pytest.raises(SchedulingError):
            sim.schedule_many_at([1.0, math.nan], noop)
        assert (sim._heap, sim._next_seq) == ([], 0)

    def test_drain_interleaves_new_pushes(self):
        sim, log, record = recording_sim()

        def push_more(payload) -> None:
            record(payload)
            sim.schedule(1.5, record, "inserted")

        sim.schedule(1.0, push_more, "first")
        sim.schedule(2.0, record, "last")
        sim.run()
        assert log == [(1.0, "first"), (1.5, "inserted"), (2.0, "last")]

    def test_default_payload_is_none(self):
        sim = Simulator()
        calls = []
        sim.schedule(0.0, lambda: calls.append("no arguments"))
        assert sim._heap[0][3] is None
        sim.run()
        assert calls == ["no arguments"]
