"""Tests for the discrete-event simulator loop."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rng import ExponentialPool
from repro.engine.simulator import Simulator, schedule_tick_window, tick_times
from repro.engine.tracing import CountingTracer
from repro.errors import SchedulingError


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_in(-0.1, lambda: None)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_rejected_bulk_block_files_nothing(self, bad):
        """A block with a past or NaN time anywhere is refused whole."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        queue = sim.queue
        with pytest.raises(SchedulingError):
            sim.schedule_many_at([sim.now + 1.0, sim.now + bad], print, [1, 2])
        assert len(queue) == 0
        assert queue._next_seq == 1
        fired = []
        sim.schedule(2.0, fired.append, "scalar")
        sim.schedule(2.0, lambda: fired.append("tie"))
        sim.schedule_many_at([2.0, 3.0], fired.append, ["bulk", "late"])
        sim.run()
        assert fired == ["scalar", "tie", "bulk", "late"]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 9),
        st.floats(0.0, 1e4, allow_nan=False),
    )
    def test_tick_window_times_match_numpy_cumsum(self, seed, window, now):
        """The plain-Python running sum adds in np.cumsum's order.

        ``tick_times`` serves every window refill (this one and the
        multi-leader pipeline's).
        """
        sim = Simulator()
        sim.now = now
        pool = ExponentialPool(np.random.default_rng(seed), 1.0)
        schedule_tick_window(sim, pool, print, 0, window)
        waits = ExponentialPool(np.random.default_rng(seed), 1.0).take_array(window)
        expected = (np.cumsum(waits) + now).tolist()
        assert tick_times(waits.tolist(), now) == expected
        filed = sorted(entry[0] for entry in sim.queue._heap)
        assert filed[1:] == expected[1:]
        assert filed[0] == now + waits[0]
        assert all(type(time) is float for time in filed)

    def test_events_execute_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_actions_can_schedule_more(self):
        sim = Simulator()
        log = []

        def chain(depth: int):
            log.append(depth)
            if depth < 3:
                sim.schedule_in(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunControls:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # The later event is still pending and can run afterwards.
        sim.run()
        assert fired == [1, 10]

    def test_until_advances_clock_when_queue_empties(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(float(index), lambda index=index: fired.append(index))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_stop_when(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(float(index), lambda index=index: fired.append(index))
        sim.run(stop_when=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]

    def test_stop_method(self):
        sim = Simulator()
        fired = []

        def fire_and_stop():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, fire_and_stop)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_events_executed_counter(self):
        sim = Simulator()
        for index in range(4):
            sim.schedule(float(index), lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_cancel_through_simulator(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("dropped"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]


class TestTracerWiring:
    def test_default_tracer_is_null(self):
        assert not Simulator().tracer.enabled_for("anything")

    def test_custom_tracer_attached(self):
        tracer = CountingTracer()
        sim = Simulator(tracer=tracer)
        sim.tracer.record("custom", sim.now)
        assert tracer.counts["custom"] == 1


class TestTallyStream:
    """Bare arrival times delivered and counted between the events."""

    def test_arrivals_interleave_with_events_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append((sim.now, sim.tallied)))
        sim.schedule(3.0, lambda: seen.append((sim.now, sim.tallied)))
        sim.tally_at([4.0, 0.5, 2.0])
        sim.run()
        assert seen == [(1.0, 1), (3.0, 2)]
        assert sim.tallied == 3
        assert sim.events_executed == 5
        assert sim.now == 4.0

    def test_event_goes_first_at_equal_times(self):
        sim = Simulator()
        seen = []

        def first():
            # Filed at now while `second` is already due at now: the
            # arrival still comes after it.
            sim.tally_in(0.0)
            seen.append(sim.tallied)

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: seen.append(sim.tallied))
        sim.tally_at([1.0])
        sim.run()
        assert seen == [0, 0]
        assert sim.tallied == 2
        assert sim.now == 1.0

    def test_until_delivers_up_to_the_horizon_only(self):
        sim = Simulator()
        sim.tally_at([1.0, 5.0, math.nextafter(5.0, math.inf), 9.0])
        sim.run(until=5.0)
        assert sim.tallied == 2
        assert sim.now == 5.0
        sim.run()
        assert sim.tallied == 4
        assert sim.events_executed == 4
        assert sim.now == 9.0

    def test_until_advances_clock_once_tally_drains(self):
        sim = Simulator()
        sim.tally_at([1.0])
        sim.run(until=7.0)
        assert sim.tallied == 1
        assert sim.now == 7.0

    def test_max_events_counts_deliveries(self):
        sim = Simulator()
        fired = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule(time, lambda time=time: fired.append(time))
        sim.tally_at([0.5, 1.5, 2.5])
        sim.run(max_events=3)
        assert fired == [1.0]
        assert sim.tallied == 2
        assert sim.events_executed == 3
        assert sim.now == 1.5

    def test_stop_when_checked_after_each_delivery(self):
        sim = Simulator()
        sim.tally_at([1.0, 2.0, 3.0, 4.0])
        sim.run(stop_when=lambda: sim.tallied >= 2)
        assert sim.tallied == 2
        assert sim.now == 2.0

    def test_trigger_fires_at_the_exact_arrival(self):
        sim = Simulator()
        fired = []
        sim.tally_at([0.3, 0.1, 0.7, 0.5])
        sim.schedule(0.6, lambda: None)
        sim.arm_tally_trigger(3, lambda: fired.append((sim.now, sim.tallied)))
        sim.run()
        assert fired == [(0.5, 3)]
        assert sim.tallied == 4

    def test_trigger_can_be_rearmed(self):
        sim = Simulator()
        fired = []

        def action():
            fired.append(sim.now)
            sim.arm_tally_trigger(sim.tallied + 2, action)

        sim.tally_at([float(time) for time in range(1, 9)])
        sim.arm_tally_trigger(1, lambda: None)
        sim.arm_tally_trigger(3, action)  # replaces the first trigger
        sim.run()
        assert fired == [3.0, 5.0, 7.0]

    def test_passed_count_never_fires(self):
        sim = Simulator()
        fired = []
        sim.tally_at([1.0, 2.0])
        sim.run(until=1.5)
        sim.arm_tally_trigger(1, lambda: fired.append(sim.now))
        sim.run()
        assert fired == []

    def test_trigger_action_can_stop_the_run(self):
        sim = Simulator()
        sim.tally_at([1.0, 2.0, 3.0])
        sim.schedule(2.5, lambda: None)
        sim.arm_tally_trigger(2, sim.stop)
        sim.run()
        assert sim.now == 2.0
        assert sim.tallied == 2
        sim.run()
        assert sim.tallied == 3
        assert sim.events_executed == 4

    def test_past_and_nan_arrivals_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.tally_at([4.0])
        with pytest.raises(SchedulingError):
            sim.tally_at([math.nan])
        with pytest.raises(SchedulingError):
            sim.tally_in(-0.5)


# A program for the differential: main events and arrivals on disjoint
# grids (events at multiples of 1/4, arrivals at odd multiples of 1/8),
# so no event ever ties an arrival and the reference's seq order cannot
# differ from the tally stream's event-first rule.
_children = st.lists(st.tuples(st.booleans(), st.integers(0, 8)), max_size=3)
_programs = st.fixed_dictionaries(
    {
        "events": st.lists(st.tuples(st.integers(0, 40), _children), max_size=12),
        "arrivals": st.lists(st.integers(0, 40), max_size=30),
        "trigger": st.integers(1, 25),
        "rearm": st.integers(0, 6),
        "mode": st.sampled_from(["free", "until", "max_events", "stop_when"]),
        "bound": st.integers(0, 80),
    }
)


def _run_program(program: dict, *, tally: bool) -> list:
    """Run ``program``; arrivals on the tally stream or as counter events."""
    sim = Simulator()
    log: list = []
    reference = {"count": 0, "fire": -1, "action": None}

    def tallied() -> int:
        return sim.tallied if tally else reference["count"]

    def arm(count, action) -> None:
        if tally:
            sim.arm_tally_trigger(count, action)
        else:
            reference["fire"], reference["action"] = count, action

    def arrive() -> None:  # the reference's no-op counter event
        reference["count"] += 1
        if reference["count"] == reference["fire"]:
            action = reference["action"]
            reference["fire"], reference["action"] = -1, None
            action()

    def file_arrival(time: float) -> None:
        if tally:
            sim.tally_at([time])
        else:
            sim.schedule(time, arrive)

    def fire() -> None:
        log.append(("fire", sim.now, tallied()))
        if program["rearm"]:
            arm(tallied() + program["rearm"], fire)

    def event(spec) -> None:
        label, children = spec
        log.append(("event", label, sim.now, tallied()))
        for index, (is_event, step) in enumerate(children):
            if is_event:
                sim.schedule_in(step * 0.25, event, ((label, index), []))
            else:
                file_arrival(sim.now + step * 0.25 + 0.125)

    for label, (slot, children) in enumerate(program["events"]):
        sim.schedule(slot * 0.25, event, (label, children))
    for slot in program["arrivals"]:
        file_arrival(slot * 0.25 + 0.125)
    arm(program["trigger"], fire)

    mode, bound = program["mode"], program["bound"]
    if mode == "until":
        sim.run(until=bound * 0.125)
    elif mode == "max_events":
        sim.run(max_events=bound)
    elif mode == "stop_when":
        sim.run(stop_when=lambda: tallied() + len(log) >= bound)
    else:
        sim.run()
    log.append(("paused", sim.now, sim.events_executed, tallied()))
    sim.run()
    log.append(("drained", sim.now, sim.events_executed, tallied()))
    return log


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_tally_matches_counter_event_dispatch(program):
    """Differential: the tally stream vs one no-op counter event per arrival."""
    assert _run_program(program, tally=True) == _run_program(program, tally=False)
