"""Enabling metrics adds no per-event work: a deterministic check.

The metrics contract says the engines count into plain ints either way
and the registry sees the totals once, after the run.  Instead of
timing that (``test_perf_smoke.test_metrics_run_overhead_under_ceiling``,
now in the ``metrics-smoke`` CI job only), this counts every
``Counter.inc`` and ``Histogram.observe`` call in runs with metrics on
and off, at two run lengths, on both cores.  The metrics-on surplus
must be the same at both lengths (a constant harvest), and a run with
metrics off must make no more calls when it runs longer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastcore
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.metrics import Counter, Histogram, MetricsRegistry
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


@pytest.mark.parametrize("core", ["python", "c"])
def test_metrics_calls_do_not_grow_with_run_length(core, monkeypatch):
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
