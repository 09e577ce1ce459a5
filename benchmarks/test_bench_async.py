"""Theorem 13 + Propositions 16/17 — single-leader async tables,
plus an event-throughput microbenchmark of the protocol simulator."""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # experiment-backed; minutes at seed pace

from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.rng import RngRegistry
from repro.workloads.opinions import biased_counts


def test_bench_thm13(run_and_save):
    result = run_and_save("thm13")
    n_rows = result.tables[0].rows
    lam_rows = result.tables[1].rows
    window_rows = result.tables[2].rows
    # Plurality wins everywhere.
    assert all(row[1] == 1.0 for row in n_rows)
    # Time measured in units is flat in n (doubly-log growth only).
    units = [row[3] for row in n_rows]
    assert max(units) < 2.0 * min(units)
    # Time in units is flat in lambda while steps scale with C1.
    unit_times = [row[4] for row in lam_rows]
    assert max(unit_times) < 1.5 * min(unit_times)
    # Prop 16: two-choices windows close near the 2-unit target and the
    # newborn generation clears the p/9 floor.
    for row in window_rows:
        assert 1.0 < row[1] < 4.0
        assert row[3] > row[4]


def test_bench_single_leader_events(benchmark):
    """Protocol-event throughput of the single-leader simulator.

    NOTE: the skip-tick chains mean one dispatched event carries more
    simulated time than one tick (locked no-op ticks are counted, not
    dispatched); ``extra_info`` records the simulated time covered, so
    pytest-benchmark's saved or ``--benchmark-json`` output can be
    normalized per unit.
    """
    params = SingleLeaderParams(n=1000, k=3, alpha0=2.0)
    counts = biased_counts(1000, 3, 2.0)

    def run_chunk():
        sim = SingleLeaderSim(params, counts, RngRegistry(0).stream("bench"))
        sim.sim.run(max_events=20_000)
        return sim

    sim = benchmark(run_chunk)
    assert sim.sim.events_executed == 20_000
    benchmark.extra_info["sim_time_units"] = round(sim.sim.now, 3)
    benchmark.extra_info["total_ticks"] = sim.total_ticks
