"""Wall-clock overhead guards, marked ``slow``: CI's ``trace-smoke`` and
``metrics-smoke`` jobs run them.  Tier-1 checks both contracts by call
counts instead (``test_trace_call_counts.py``,
``test_metrics_call_counts.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

#: Ceiling on traced/untraced runtime ratio.
TRACE_OVERHEAD_CEILING = 2.0
#: Ceiling on metrics-enabled/disabled runtime ratio.  Metrics are
#: harvested at run epilogues from plain-int telemetry the engines keep
#: anyway, so the enabled run does no extra per-event work — the ratio
#: should sit at ~1.0 and 1.10 catches any drift back toward per-event
#: instrument calls.
METRICS_OVERHEAD_CEILING = 1.10


@pytest.mark.slow
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

    def timed(traced: bool) -> float:
        best = float("inf")
        for attempt in range(3):
            tracer = JsonlTracer(tmp_path / f"run{attempt}.jsonl") if traced else None
            rng = np.random.Generator(np.random.PCG64(42))
            sim = SingleLeaderSim(params, counts.copy(), rng, tracer=tracer)
            start = time.perf_counter()
            sim.run(max_time=1200.0)
            best = min(best, time.perf_counter() - start)
            if tracer is not None:
                tracer.close()
        return best

    monkeypatch.setattr(fastcore, "_core", None)
    untraced = timed(False)
    traced = timed(True)
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
