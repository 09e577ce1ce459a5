"""Trace records carry no engine fingerprint.

The trace vocabulary is protocol-level by design — no engine names, no
dispatch counters, no tick totals — so a record stream depends only on
the protocol's state machine, not on how the event engine batches its
dispatches.  Any engine-dependent field sneaking into a record (an
events-executed counter, a tick count, the engine name) breaks this
test immediately, which is exactly the regression it exists to catch.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.simulator import Simulator
from repro.engine.tracing import JsonlTracer


def test_trace_records_carry_no_engine_fingerprint(tmp_path):
    """No record field may name or count engine internals."""
    path = tmp_path / "trace.jsonl"
    params = SingleLeaderParams(n=60, k=3, alpha0=2.0)
    with JsonlTracer(path) as tracer:
        sim = SingleLeaderSim(
            params,
            np.array([30, 20, 10]),
            np.random.Generator(np.random.PCG64(11)),
            simulator=Simulator(tracer=tracer),
        )
        sim.run(max_time=500.0)
    forbidden = {"engine", "events_executed", "total_ticks", "queue"}
    lines = path.read_text().splitlines()
    assert lines  # a trivially-empty trace would pass vacuously
    for line in lines:
        record = json.loads(line)
        assert not forbidden & set(record), record
