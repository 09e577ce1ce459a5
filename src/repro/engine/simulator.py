"""The discrete-event simulator.

:class:`Simulator` owns the simulated clock and the event queue and runs
the classic event loop: repeatedly pop the earliest event, advance the
clock to its timestamp, and execute its action.  Actions schedule
further events through :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_in` / :meth:`Simulator.schedule_many_at`.

Next to the event queue runs a *tally stream*: a float min-heap of bare
arrival times, filed with :meth:`Simulator.tally_at` /
:meth:`Simulator.tally_in`.  An arrival has no action and no payload;
the loop delivers it in time order between the events (at equal times
the event goes first) and counts it.  One armed trigger
(:meth:`Simulator.arm_tally_trigger`) runs an action at the arrival
that brings the count to a target.  This models messages whose receiver
only counts them up to a threshold — the single-leader protocol's
0-signals — for a float push and pop each instead of a dispatched event.

The queue is :class:`~repro.engine.events.EventQueue`: ``(time, seq,
action, payload)`` tuples on the C ``heapq`` with lazy tombstones.
:meth:`Simulator.schedule_many_at` files a whole block of events (one
draw-pool block of pre-drawn times) in one call.  Protocol simulators
size those blocks by :attr:`Simulator.tick_window`, which collapses to
1 when the draw-pool block size is 1 — that degenerate configuration
replays the scalar-draw reference engine draw for draw (see
``tests/engine/test_fast_equivalence.py``).

Dispatching one event costs a couple of list loads and the callback
itself.  Protocol components (nodes, leaders, clocks) are plain Python
objects holding a reference to the simulator; there is no
process/coroutine machinery — the paper's protocols are reactive state
machines, which map naturally onto event callbacks with integer
payloads.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Sequence

import numpy as np

import repro.engine.rng as engine_rng
from repro.engine.events import EventQueue
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import SchedulingError

__all__ = [
    "Simulator",
    "DEFAULT_ENGINE",
    "DEFAULT_TICK_WINDOW",
    "schedule_tick_window",
    "tick_times",
]

#: Name of the event engine, recorded in ledger provenance and in the
#: ``engine.runs.<name>`` metrics counter.
DEFAULT_ENGINE = "batch"

#: Ticks a protocol simulator pre-schedules per node and refill.  The
#: effective window is ``min(DEFAULT_TICK_WINDOW, rng.DEFAULT_BLOCK)``
#: so that forcing draw pools to block size 1 (the equivalence suite)
#: also forces event-granular scheduling in the exact scalar draw order.
DEFAULT_TICK_WINDOW = 8


class Simulator:
    """Event-loop driver for continuous-time simulations.

    Parameters
    ----------
    tracer:
        Receives structured trace records; defaults to a no-op tracer.

    Notes
    -----
    Time starts at ``0.0`` and only moves forward. Scheduling an event in
    the past raises :class:`repro.errors.SchedulingError` — protocols in
    this library never need it and it is almost always a bug.
    """

    def __init__(self, *, tracer: Tracer | None = None):
        self.queue = EventQueue()
        self.now = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._events_executed = 0
        self._stop_requested = False
        #: Tally stream: pending arrival times (a min-heap), deliveries
        #: so far, and the armed trigger (count -1 = none armed).
        self._tally: list[float] = []
        self._tallied = 0
        self._trigger_at = -1
        self._trigger_action: Callable[[], Any] | None = None

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (telemetry)."""
        return self._events_executed

    @property
    def tallied(self) -> int:
        """Tally arrivals delivered so far."""
        return self._tallied

    @property
    def tick_window(self) -> int:
        """Events a protocol should pre-schedule per bulk call.

        ``min(DEFAULT_TICK_WINDOW, DEFAULT_BLOCK)``, so block-1 pools
        imply window 1 and exact scalar draw order.
        """
        return max(1, min(DEFAULT_TICK_WINDOW, engine_rng.DEFAULT_BLOCK))

    def schedule(
        self, time: float, action: Callable[..., Any], payload: Any = None
    ) -> int:
        """Schedule ``action(payload)`` at absolute simulated ``time``.

        Returns the event's sequence handle (pass to :meth:`cancel`). A
        ``None`` payload means ``action`` runs with no arguments.
        """
        if not time >= self.now:  # rejects past times and NaN
            raise SchedulingError(
                f"cannot schedule event at {time} in the past (now={self.now})"
            )
        queue = self.queue
        # Inlined EventQueue.push — one event is scheduled per event
        # executed in steady state, so this is as hot as the run loop.
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (time, seq, action, payload))
        if queue._live is not None:
            queue._live.add(seq)
        return seq

    def schedule_in(
        self, delay: float, action: Callable[..., Any], payload: Any = None
    ) -> int:
        """Schedule ``action(payload)`` after a non-negative ``delay`` from now."""
        if not delay >= 0:  # rejects negative delays and NaN
            raise SchedulingError(f"negative delay {delay}")
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (self.now + delay, seq, action, payload))
        if queue._live is not None:
            queue._live.add(seq)
        return seq

    def schedule_many_at(
        self,
        times: Sequence[float] | np.ndarray,
        action: Callable[..., Any],
        payloads: Sequence[Any] | None = None,
    ) -> range:
        """Bulk-schedule ``action`` at each *absolute* simulated time.

        The bulk counterpart of :meth:`schedule`: one call files a whole
        block of events (typically a draw-pool block of tick or signal
        times).  ``payloads`` is a parallel sequence; ``None`` dispatches
        every event with no arguments.  A past or NaN time anywhere in
        the block raises before any event is filed.  Returns the
        contiguous range of sequence handles.
        """
        if isinstance(times, np.ndarray):
            # Plain floats: a numpy scalar must never become ``now``.
            times = times.tolist()
        if len(times) and not min(times) >= self.now:
            raise SchedulingError(
                f"bulk schedule contains a past or NaN time (now={self.now})"
            )
        return self.queue.push_many(times, action, payloads)

    def tally_at(self, times: Iterable[float]) -> None:
        """File tally arrivals at absolute simulated ``times``.

        The tally counterpart of :meth:`schedule_many_at`: protocols
        file one pre-drawn block per call.  Past, NaN and infinite times
        raise.
        """
        now = self.now
        tally = self._tally
        for time in times:
            if not now <= time < math.inf:  # rejects past, NaN and inf
                raise SchedulingError(
                    f"cannot tally an arrival at {time} (now={now})"
                )
            heappush(tally, time)

    def tally_in(self, delay: float) -> None:
        """File one tally arrival after a non-negative ``delay`` from now."""
        if not 0 <= delay < math.inf:  # rejects negative, NaN and inf
            raise SchedulingError(f"cannot tally an arrival after delay {delay}")
        heappush(self._tally, self.now + delay)

    def arm_tally_trigger(self, count: int, action: Callable[[], Any]) -> None:
        """Run ``action()`` at the arrival that brings :attr:`tallied` to ``count``.

        ``now`` is that arrival's time during the call.  The trigger
        fires once; arming again replaces it, and a count already
        passed never fires.
        """
        self._trigger_at = count
        self._trigger_action = action

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled event by its sequence handle."""
        self.queue.cancel(handle)

    def publish_metrics(self, metrics) -> None:
        """Harvest engine counters into a metrics registry (run epilogue).

        Nothing on the event loop itself changes for metrics: the loop
        already counts executed events and the queue counts its own
        amortized-path telemetry (bulk blocks, cancels, tombstone pops),
        so enabling metrics costs one dict harvest after the run.
        """
        if metrics is None or not metrics.enabled:
            return
        metrics.counter(f"engine.runs.{DEFAULT_ENGINE}").inc()
        metrics.counter("engine.events_executed").inc(self._events_executed)
        metrics.add_counters(self.queue.stats(), prefix="engine.")

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> float:
        """Execute events and tally arrivals until a stopping condition holds.

        Tally arrivals are delivered in time order between the events;
        at equal times the event goes first.  Every delivery counts in
        :attr:`events_executed`, ``max_events`` and ``stop_when``, like
        an executed event.

        Parameters
        ----------
        until:
            Stop (without executing) at the first event or arrival later
            than this time; the clock is then advanced to ``until``.
        max_events:
            Execute at most this many events (guards runaway loops).
        stop_when:
            Checked after every executed event; the loop exits as soon as
            it returns ``True``.

        Returns
        -------
        float
            The simulated time when the loop exited.
        """
        self._stop_requested = False
        horizon = math.inf if until is None else until
        if max_events is None and stop_when is None:
            self._run_free(horizon)
        else:
            self._run_polled(horizon, max_events, stop_when)
        if until is not None and not self.queue and not self._tally and self.now < until:
            self.now = until
        return self.now

    def _run_free(self, horizon: float) -> None:
        """The unpolled loop, the one protocol runs take.

        Protocol runs stop via :meth:`stop` (convergence is detected at
        the state update, not polled per event), so only the horizon is
        checked, and every tally arrival due before the next event is
        delivered in one inner run.
        """
        queue = self.queue
        heap = queue._heap
        tally = self._tally
        # The first float past the horizon: ``< limit`` bounds a run of
        # deliveries by both the next event (exclusive) and the horizon
        # (inclusive).
        past = math.nextafter(horizon, math.inf)
        executed = 0
        try:
            while True:
                # Make heap[0] the next live event: drop tombstones.
                # queue._live is re-read per event because a callback
                # can trigger the first cancellation mid-run.
                if heap:
                    entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    due = entry[0]
                elif tally:
                    due = math.inf
                else:
                    return
                if tally and tally[0] < due:
                    time = tally[0]
                    if time > horizon:
                        self.now = horizon
                        return
                    limit = due if due < past else past
                    count = start = self._tallied
                    fire = self._trigger_at
                    while True:
                        heappop(tally)
                        count += 1
                        if count == fire or not tally or tally[0] >= limit:
                            break
                        time = tally[0]
                    self._tallied = count
                    executed += count - start
                    self.now = time
                    if count == fire:
                        self._fire_trigger()
                        if self._stop_requested:
                            return
                    continue
                if due > horizon:
                    self.now = horizon
                    return
                heappop(heap)
                if live is not None:
                    live.remove(entry[1])
                self.now = due
                payload = entry[3]
                if payload is None:
                    entry[2]()
                else:
                    entry[2](payload)
                executed += 1
                if self._stop_requested:
                    return
        finally:
            self._events_executed += executed

    def _run_polled(
        self,
        horizon: float,
        max_events: int | None,
        stop_when: Callable[[], bool] | None,
    ) -> None:
        """The polled loop: one event or delivery per iteration.

        Head selection mirrors :meth:`_run_free` inline, with no helper
        call per event.
        """
        queue = self.queue
        heap = queue._heap
        tally = self._tally
        cap = sys.maxsize if max_events is None else max_events
        executed = 0
        try:
            while executed < cap:
                if heap:
                    entry = heap[0]
                    live = queue._live
                    if live is not None and entry[1] not in live:
                        heappop(heap)
                        queue.dead_pops += 1
                        continue
                    due = entry[0]
                elif tally:
                    due = math.inf
                else:
                    return
                if tally and tally[0] < due:
                    time = tally[0]
                    if time > horizon:
                        self.now = horizon
                        return
                    heappop(tally)
                    self.now = time
                    self._tallied += 1
                    executed += 1
                    if self._tallied == self._trigger_at:
                        self._fire_trigger()
                else:
                    if due > horizon:
                        self.now = horizon
                        return
                    heappop(heap)
                    if live is not None:
                        live.remove(entry[1])
                    self.now = due
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                    executed += 1
                if self._stop_requested:
                    return
                if stop_when is not None and stop_when():
                    return
        finally:
            self._events_executed += executed

    def _fire_trigger(self) -> None:
        """Disarm the tally trigger, then run its action."""
        action = self._trigger_action
        self._trigger_at = -1
        self._trigger_action = None
        action()


def tick_times(waits: Sequence[float], now: float) -> list[float]:
    """Absolute tick times ``now + cumsum(waits)``, as plain floats.

    The window refills' running sum: at window sizes numpy's per-call
    overhead costs more than this loop, and ``total += wait`` adds in
    ``np.cumsum``'s order, so the times match it bit for bit.
    """
    total = 0.0
    ticks = []
    for wait in waits:
        total += wait
        ticks.append(total + now)
    return ticks


def schedule_tick_window(sim: Simulator, wait_pool, tick, node: int, window: int) -> None:
    """Pre-schedule a node's next ``window`` ticks (wait-only chains).

    The shared refill for protocols whose ticks carry no pre-computable
    side events (clustering, broadcast): the soonest tick goes in as a
    scalar so the bulk block matures late, the rest as one
    :meth:`Simulator.schedule_many_at` block.  ``window`` must be at
    least 2 (window 1 uses the caller's event-granular fallback).
    """
    waits = wait_pool.take(window)
    ticks = tick_times(waits, sim.now)
    sim.schedule_in(waits[0], tick, node)  # soonest tick: scalar
    sim.schedule_many_at(ticks[1:], tick, [node] * (window - 1))
