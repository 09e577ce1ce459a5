"""Event queue for the discrete-event simulation engine.

Events are plain ``(time, seq, action, payload)`` tuples on a binary
heap — no per-event object allocation on the hot path.  The
monotonically increasing sequence number gives deterministic FIFO
tie-breaking for events scheduled at the same simulated time (essential
for reproducibility) and guarantees ``heapq`` never has to compare
actions or payloads.

``action`` is any callable; ``payload`` is the single argument it is
dispatched with (``None`` means "call with no arguments").  Protocol
simulators pass bound methods with integer or small-tuple payloads,
which is far cheaper than allocating a fresh closure per event.

Cancellation is lazy, via tombstones over a *live set*: the first
:meth:`EventQueue.cancel` snapshots the pending sequence numbers, and a
cancelled entry is dropped — never dispatched — when it reaches the top
of the heap.  Tracking live seqs (rather than a set of cancelled ones)
makes cancelling an already-dispatched or already-cancelled handle a
harmless no-op, a property pinned down by the Hypothesis suite in
``tests/engine/test_event_queue_properties.py``.  Queues that never
cancel (all the protocol simulators) skip the set bookkeeping entirely.

Bulk inserts (:meth:`EventQueue.push_many`) file a whole block — one
draw-pool block of pre-drawn tick or signal times — with one
``heappush`` per entry and consecutive sequence numbers, so a block pops
exactly as the same entries pushed one by one would.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Sequence

from repro.errors import SchedulingError

__all__ = ["EventQueue"]

#: One scheduled occurrence: ``(time, seq, action, payload)``.
Entry = tuple[float, int, Callable[..., Any], Any]

class EventQueue:
    """A binary-heap priority queue of ``(time, seq, action, payload)`` tuples.

    :meth:`push` returns the event's sequence number, which doubles as
    the cancellation handle: :meth:`cancel` marks the entry dead (a
    tombstone) and it is skipped and dropped when popped.

    ``_live`` is ``None`` until the first cancellation — the common
    all-events-fire case pays nothing for cancellation support.
    """

    __slots__ = (
        "_heap",
        "_next_seq",
        "_live",
        "flushes",
        "flushed_events",
        "cancels",
        "dead_pops",
    )

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._next_seq = 0
        self._live: set[int] | None = None
        #: Telemetry (plain ints on amortized paths; harvested at run
        #: epilogue): ``flushes`` counts :meth:`push_many` blocks and
        #: ``flushed_events`` the events they filed.
        self.flushes = 0
        self.flushed_events = 0
        self.cancels = 0
        self.dead_pops = 0

    def __len__(self) -> int:
        live = self._live
        return len(self._heap) if live is None else len(live)

    def __bool__(self) -> bool:
        live = self._live
        return bool(self._heap) if live is None else bool(live)

    def push(self, time: float, action: Callable[..., Any], payload: Any = None) -> int:
        """Schedule ``action(payload)`` at absolute ``time``; returns the seq handle.

        A ``None`` payload means ``action`` is invoked with no arguments.

        NOTE: ``Simulator.schedule``/``schedule_in`` inline this body for
        speed — any change to the seq/heap/live bookkeeping here must be
        mirrored there.
        """
        if time != time:  # NaN guard
            raise SchedulingError("cannot schedule an event at time NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, payload))
        if self._live is not None:
            self._live.add(seq)
        return seq

    def push_many(
        self,
        times: Sequence[float],
        action: Callable[..., Any],
        payloads: Sequence[Any] | None = None,
    ) -> range:
        """Schedule ``action`` at each absolute time; returns the seq handles.

        ``payloads`` is a parallel sequence (``None`` means every event
        dispatches with no arguments).  The whole block is validated
        before anything is pushed, so a rejected block leaves the queue
        and its sequence counter untouched.
        """
        k = len(times)
        if payloads is not None and len(payloads) != k:
            raise SchedulingError(f"push_many got {k} times but {len(payloads)} payloads")
        total = sum(times)  # a NaN anywhere poisons the sum
        if total != total:
            raise SchedulingError("cannot schedule an event at time NaN")
        heap = self._heap
        push = heapq.heappush
        start = seq = self._next_seq
        if payloads is None:
            for time in times:
                push(heap, (time, seq, action, None))
                seq += 1
        else:
            for time, payload in zip(times, payloads):
                push(heap, (time, seq, action, payload))
                seq += 1
        self._next_seq = seq
        if self._live is not None:
            self._live.update(range(start, seq))
        self.flushes += 1
        self.flushed_events += k
        return range(start, seq)

    def reserve_handle(self) -> int:
        """Allocate a sequence handle without scheduling anything.

        Used by fault injection to hand callers a handle for an event it
        decided to *drop*: the handle behaves like an already-dispatched
        event (cancelling it is a no-op, it never fires).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def cancel(self, seq: int) -> None:
        """Tombstone the event with handle ``seq``; it will never dispatch.

        Idempotent; cancelling a handle that already dispatched is a
        no-op.  The first cancellation snapshots the live set.
        """
        live = self._live
        if live is None:
            live = self._live = {entry[1] for entry in self._heap}
        live.discard(seq)
        self.cancels += 1

    def stats(self) -> dict[str, int]:
        """Queue telemetry counters (epilogue harvest, see engine.metrics)."""
        return {
            "queue.flushes": self.flushes,
            "queue.flushed_events": self.flushed_events,
            "queue.cancels": self.cancels,
            "queue.dead_pops": self.dead_pops,
        }

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        live = self._live
        if live is not None:
            while heap and heap[0][1] not in live:
                heapq.heappop(heap)
                self.dead_pops += 1
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Entry:
        """Remove and return the next live ``(time, seq, action, payload)``.

        Raises
        ------
        SchedulingError
            If the queue is empty.
        """
        heap = self._heap
        live = self._live
        if live is None:
            if not heap:
                raise SchedulingError("pop from an empty event queue")
            return heapq.heappop(heap)
        while heap:
            entry = heapq.heappop(heap)
            if entry[1] in live:
                live.remove(entry[1])
                return entry
            self.dead_pops += 1
        raise SchedulingError("pop from an empty event queue")

    def drain(self) -> Iterator[Entry]:
        """Yield live events in time order until the queue is empty.

        New events pushed while draining are interleaved correctly.
        """
        while self:
            yield self.pop()
