"""Tracing writes in batches, not per event: a deterministic check.

Tier-1's stand-in for the timed 2x guard in ``test_perf_smoke.py``
(``trace-smoke`` CI job).  At two run lengths of a traced single-leader
run on the Python core (the core that traces), tracing must add no
event, write every emitted record exactly once, call ``json.dumps``
only for records whose batch is due, and make no more file writes than
one per full 1024-record buffer plus the final flush.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.core import fastcore
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.tracing import JsonlTracer

BUFFER = 1024


class CountingFile(io.StringIO):
    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def test_traced_run_writes_each_record_once_in_batches(monkeypatch):
    monkeypatch.setattr(fastcore, "_core", None)
    calls = {"record": 0, "dumps": 0}
    for owner, name in ((JsonlTracer, "record"), (json, "dumps")):

        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
    events = []
    # The second length runs to consensus and fills more than one buffer.
    for max_time in (10.0, 1200.0):
        sink = CountingFile()
        tracer = JsonlTracer(sink, buffer_records=BUFFER)
        sims = []
        for run_tracer in (None, tracer):
            calls.update(record=0, dumps=0)
            rng = np.random.Generator(np.random.PCG64(42))
            sims.append(SingleLeaderSim(params, np.array([150, 100, 50]), rng, tracer=run_tracer))
            sims[-1].run(max_time=max_time)
        untraced, traced = sims
        assert traced.core == "python"
        assert traced.sim.events_executed == untraced.sim.events_executed
        events.append(traced.sim.events_executed)
        assert tracer.records_written == BUFFER * sink.writes == calls["dumps"]
        tracer.close()
        lines = sink.getvalue().splitlines()
        assert len(lines) == calls["record"] == calls["dumps"]
        assert sink.writes <= len(lines) // BUFFER + 1
    assert events[1] > 3 * events[0]
    assert tracer.records_written > BUFFER
