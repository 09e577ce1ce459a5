"""Performance smoke test: the fast engine must stay fast.

Pins events/second floors for the event-dispatch hot path so a
regression back to per-event numpy calls or object allocation fails
loudly in the default suite.  Both the scalar ``schedule_in`` path
and the bulk ``schedule_many_at`` path are covered, so neither can
become the silently untested one.

The default floor is ~5x below the rate measured on a development
machine (~1.3-2.0M events/s depending on path) to stay robust on slow
or loaded CI hardware while still catching order-of-magnitude
regressions.  The CI ``perf-floor`` job overrides it via
``REPRO_PERF_FLOOR`` to pin the historically measured 1.35M events/s
on a dedicated runner.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.engine.rng import ExponentialPool
from repro.engine.simulator import Simulator

EVENTS = 100_000
FLOOR_EVENTS_PER_SECOND = float(os.environ.get("REPRO_PERF_FLOOR", 250_000.0))
#: Ceiling on traced/untraced runtime ratio (ISSUE 6 acceptance bound).
TRACE_OVERHEAD_CEILING = float(os.environ.get("REPRO_TRACE_OVERHEAD", 2.0))
#: Ceiling on metrics-enabled/disabled runtime ratio (ISSUE 8 acceptance
#: bound).  Metrics are harvested at run epilogues from plain-int
#: telemetry the engines keep anyway, so the enabled run does no extra
#: per-event work — the ratio should sit at ~1.0 and 1.10 catches any
#: drift back toward per-event instrument calls.
METRICS_OVERHEAD_CEILING = float(os.environ.get("REPRO_METRICS_OVERHEAD", 1.10))


def test_event_loop_throughput_floor():
    """Scalar self-rescheduling chain: one push + one pop per event."""
    sim = Simulator()
    waits = ExponentialPool(np.random.Generator(np.random.PCG64(0)), 1.0)
    remaining = [EVENTS]

    def hop() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule_in(waits(), hop)

    sim.schedule_in(0.0, hop)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.events_executed == EVENTS
    rate = EVENTS / elapsed
    assert rate > FLOOR_EVENTS_PER_SECOND, (
        f"event loop ran at {rate:,.0f} events/s, "
        f"below the {FLOOR_EVENTS_PER_SECOND:,.0f} floor"
    )


def test_bulk_dispatch_throughput_floor():
    """Window-batched chain: the schedule_many_at path.

    This is the shape of the protocol hot path after the batched-core
    refactor — whole pool blocks of delays per bulk insert — and the
    rate the CI perf-floor job pins at the historical 1.35M events/s.
    """
    window = 64
    sim = Simulator()
    waits = ExponentialPool(np.random.Generator(np.random.PCG64(0)), 1.0)
    count = [0]

    def hop(credit: int) -> None:
        count[0] += 1
        if credit == 0 and count[0] < EVENTS:
            draws = waits.take(window)
            tick = sim.now
            times = []
            for wait in draws:
                tick += wait
                times.append(tick)
            sim.schedule_many_at(times, hop, list(range(window - 1, -1, -1)))

    sim.schedule_in(0.0, hop, 0)
    start = time.perf_counter()
    sim.run(max_events=EVENTS)
    elapsed = time.perf_counter() - start
    assert sim.events_executed == EVENTS
    rate = EVENTS / elapsed
    assert rate > FLOOR_EVENTS_PER_SECOND, (
        f"bulk dispatch ran at {rate:,.0f} events/s, "
        f"below the {FLOOR_EVENTS_PER_SECOND:,.0f} floor"
    )


def test_traced_run_overhead_under_ceiling(tmp_path, monkeypatch):
    """A fully traced protocol run must stay within 2x of untraced.

    This pins the JsonlTracer hot-path contract (one tuple append per
    record, batched serialization at flush): if record() grows a dict
    build, a per-record write, or eager json.dumps, this ratio blows
    past the ceiling.  Best-of-3 on both sides to shrug off CI noise.

    Traced runs always take the Python core, so both sides are pinned
    to it: the gate measures what tracing costs the engine that traces.
    """
    from repro.core import fastcore
    from repro.core.params import SingleLeaderParams
    from repro.core.single_leader import SingleLeaderSim
    from repro.engine.tracing import JsonlTracer

    params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
    counts = np.array([150, 100, 50])

    def timed(tracer_path) -> float:
        best = float("inf")
        for attempt in range(3):
            rng = np.random.Generator(np.random.PCG64(42))
            if tracer_path is None:
                sim = SingleLeaderSim(params, counts.copy(), rng)
                start = time.perf_counter()
                sim.run(max_time=1200.0)
                best = min(best, time.perf_counter() - start)
            else:
                with JsonlTracer(tracer_path / f"run{attempt}.jsonl") as tracer:
                    simulator = Simulator(tracer=tracer)
                    sim = SingleLeaderSim(
                        params, counts.copy(), rng, simulator=simulator
                    )
                    start = time.perf_counter()
                    sim.run(max_time=1200.0)
                    best = min(best, time.perf_counter() - start)
        return best

    monkeypatch.setattr(fastcore, "_core", None)
    untraced = timed(None)
    traced = timed(tmp_path)
    ratio = traced / untraced
    assert ratio < TRACE_OVERHEAD_CEILING, (
        f"traced run took {ratio:.2f}x the untraced run "
        f"(ceiling {TRACE_OVERHEAD_CEILING:.2f}x; "
        f"untraced {untraced * 1e3:.1f}ms, traced {traced * 1e3:.1f}ms)"
    )


@pytest.mark.slow
def test_metrics_run_overhead_under_ceiling():
    """A metrics-enabled protocol run must stay within 1.10x of disabled.

    Marked ``slow``: tier-1 checks the same contract deterministically
    (``test_metrics_call_counts.py``); this wall-clock gate runs in the
    ``metrics-smoke`` CI job.

    This pins the harvest-at-epilogue contract: enabling ``--metrics``
    must add no per-event work to the hot path (the engines count into
    plain ints either way and the registry only sees the totals once,
    after the run).  If someone wires a ``Counter.inc`` or
    ``Histogram.observe`` into the dispatch loop, this ratio blows past
    the ceiling.

    The host may change speed mid-measurement, so the two sides are
    timed in adjacent pairs (order alternating) and the ratio is the
    median over the pairs.  Each run goes to consensus, so every
    handler of the protocol is timed; a per-event cost shows in every
    pair, a slow moment on the host in only a few.
    """
    from repro.core.params import SingleLeaderParams
    from repro.core.single_leader import run_single_leader
    from repro.engine.metrics import MetricsRegistry

    params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
    counts = np.array([150, 100, 50])

    def timed(with_metrics: bool) -> float:
        rng = np.random.Generator(np.random.PCG64(42))
        metrics = MetricsRegistry() if with_metrics else None
        start = time.perf_counter()
        run_single_leader(
            params, counts.copy(), rng, max_time=1200.0, metrics=metrics
        )
        return time.perf_counter() - start

    ratios = []
    for pair in range(15):
        if pair % 2:
            enabled = timed(True)
            disabled = timed(False)
        else:
            disabled = timed(False)
            enabled = timed(True)
        ratios.append(enabled / disabled)
    ratio = float(np.median(ratios))
    assert ratio < METRICS_OVERHEAD_CEILING, (
        f"metrics-enabled run took {ratio:.2f}x the disabled run "
        f"(median of {len(ratios)} pairs; ceiling "
        f"{METRICS_OVERHEAD_CEILING:.2f}x; pair ratios "
        f"{min(ratios):.2f}-{max(ratios):.2f})"
    )
