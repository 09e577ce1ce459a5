"""Enabling metrics adds no per-event work: a deterministic check.

The metrics contract says the engines count into plain ints either way
and the registry sees the totals once, after the run.  Instead of
timing that (``test_perf_smoke.test_metrics_run_overhead_under_ceiling``,
now in the ``metrics-smoke`` CI job only), this counts every
``Counter.inc`` and ``Histogram.observe`` call in runs with metrics on
and off, at two run lengths, on both cores, for the single-leader
protocol and for the ``multileader`` target (both phase simulators and
the fault seams).  The metrics-on surplus must be the same at both
lengths (a constant harvest), and a run with metrics off must make no
more calls when it runs longer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastcore
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.metrics import Counter, Histogram, MetricsRegistry
from repro.engine.rng import RngRegistry
from repro.sweep.targets import get_target
from repro.workloads.opinions import biased_counts

#: Two run lengths (simulated time), the second several times the first.
SHORT, LONG = 10.0, 40.0


def counted_run(
    params: SingleLeaderParams, max_time: float, with_metrics: bool, calls: list[int]
) -> SingleLeaderSim:
    rng = np.random.Generator(np.random.PCG64(42))
    sim = SingleLeaderSim(params, biased_counts(params.n, params.k, params.alpha0), rng)
    before = calls[0]
    sim.run(max_time=max_time)
    sim.publish_metrics(MetricsRegistry() if with_metrics else None)
    sim.instrument_calls = calls[0] - before
    return sim


def counting_calls(core: str, monkeypatch) -> list[int]:
    """Pin the core and count every instrument call into the returned cell."""
    if core == "c" and fastcore.load() is None:
        pytest.skip("compiled core unavailable (no working C compiler); CI requires it")
    if core == "python":
        monkeypatch.setattr(fastcore, "_core", None)
    calls = [0]
    for cls, name in ((Counter, "inc"), (Histogram, "observe")):
        original = getattr(cls, name)

        def counting(self, *args, _original=original, **kwargs):
            calls[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("core", ["python", "c"])
def test_metrics_calls_do_not_grow_with_run_length(core, monkeypatch):
    calls = counting_calls(core, monkeypatch)
    params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
    runs = {
        (max_time, on): counted_run(params, max_time, on, calls)
        for max_time in (SHORT, LONG)
        for on in (False, True)
    }
    assert {sim.core for sim in runs.values()} == {core}
    events = {max_time: runs[max_time, False].sim.events_executed for max_time in (SHORT, LONG)}
    assert events[LONG] > 3 * events[SHORT]
    surplus = {
        max_time: runs[max_time, True].instrument_calls - runs[max_time, False].instrument_calls
        for max_time in (SHORT, LONG)
    }
    assert surplus[SHORT] > 0
    assert surplus[SHORT] == surplus[LONG]
    assert runs[SHORT, False].instrument_calls == runs[LONG, False].instrument_calls


@pytest.mark.parametrize("core", ["python", "c"])
def test_multileader_metrics_calls_do_not_grow_with_run_length(core, monkeypatch):
    calls = counting_calls(core, monkeypatch)
    params = {"n": 200, "k": 3, "alpha": 2.0, "drop": 0.1, "stragglers": 0.1}
    runs = {}
    for max_time in (SHORT, LONG):
        for on in (False, True):
            metrics = MetricsRegistry() if on else None
            rng = RngRegistry(42).stream("metrics-calls")
            before = calls[0]
            get_target("multileader")({**params, "max_time": max_time}, rng, metrics=metrics)
            runs[max_time, on] = (calls[0] - before, metrics)
    counters = {
        max_time: runs[max_time, True][1].snapshot()["counters"] for max_time in (SHORT, LONG)
    }
    # Both phases ran on the engine, the consensus phase on the pinned core.
    assert counters[SHORT][f"engine.core.{core}"] >= 1
    assert counters[LONG]["engine.events_executed"] > counters[SHORT]["engine.events_executed"]
    assert counters[LONG]["protocol.ticks_total"] > counters[SHORT]["protocol.ticks_total"]
    surplus = {
        max_time: runs[max_time, True][0] - runs[max_time, False][0] for max_time in (SHORT, LONG)
    }
    assert surplus[SHORT] > 0
    assert surplus[SHORT] == surplus[LONG]
    assert runs[SHORT, False][0] == runs[LONG, False][0]
