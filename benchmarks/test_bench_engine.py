"""Microbenchmarks of the discrete-event substrate itself.

The first three benches measure 10k scheduled no-op events run in one
pass, 20k self-rescheduling dispatches and 10k exponential draws; the
draw-pool bench measures the batched-randomness layer the protocol hot
path actually uses.
"""

from __future__ import annotations

from repro.engine.rng import ExponentialPool, RngRegistry
from repro.engine.simulator import Simulator


def noop() -> None:
    pass


def test_bench_event_queue_push_pop(benchmark):
    """Throughput of 10k schedules and one run dispatching them all."""
    rng = RngRegistry(0).stream("bench-queue")
    times = rng.random(10_000).tolist()

    def churn():
        sim = Simulator()
        for time in times:
            sim.schedule(time, noop)
        sim.run()
        return sim.events_executed

    assert benchmark(churn) == 10_000


def test_bench_simulator_event_loop(benchmark):
    """Raw event-loop dispatch rate (self-rescheduling no-op events)."""

    def loop():
        sim = Simulator()
        remaining = [20_000]

        def hop():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule_in(1.0, hop)

        sim.schedule_in(0.0, hop)
        sim.run()
        return sim.events_executed

    assert benchmark(loop) == 20_000


def test_bench_exponential_draws(benchmark):
    """Cost of one vectorized block draw (the pool refill primitive)."""
    rng = RngRegistry(0).stream("bench-exp")
    result = benchmark(lambda: rng.exponential(1.0, size=10_000).sum())
    assert result > 0


def test_bench_draw_pool(benchmark):
    """Amortized cost of 10k pooled scalar draws (the hot-path pattern)."""
    pool = ExponentialPool(RngRegistry(0).stream("bench-pool"), 1.0)

    def drain():
        total = 0.0
        for _ in range(10_000):
            total += pool()
        return total

    assert benchmark(drain) > 0
