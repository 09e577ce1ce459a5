"""The fault seam's bulk paths against its scalar path.

``FaultInjection`` validates a ``schedule_many_at`` block (or a
``tally_at`` block) whole before it files anything, then sends a tick
block without churn to the simulator in one call and every other block
through the scalar seam in block order.  These tests pin that to the
scalar seam: a rejected block leaves every queue, counter
and fault pool untouched, a block pops, drops and draws exactly as the
same entries filed one by one through ``schedule_in`` / ``tally_in``,
and no numpy scalar reaches the clock or the trace.  The seam's
``now + (time - now)`` refiling of a tick block gives back every tick
time exactly, which is why the compiled cores file the times as they are.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.engine.rng import RngRegistry
from repro.engine.tracing import TraceRecorder
from repro.errors import SchedulingError
from repro.multileader.params import MultiLeaderParams
from repro.multileader.protocol import run_multileader
from repro.scenarios.faults import (
    CrashAtTimes,
    GilbertElliottDrop,
    IidDrop,
    Stragglers,
    build_faults,
    prepare_faulty_simulator,
)
from repro.workloads.opinions import biased_counts

N = 4


class Harness:
    """A protocol stand-in: classified handlers that log their dispatches.

    A dropped exchange unlocks its node, and ``_unlock`` schedules the
    node's next tick one time unit ahead, so drops inside a block file
    events between the block's own entries.
    """

    def __init__(self, sim):
        self.n = N
        self.sim = sim
        self.log: list[tuple] = []

    def _tick(self, payload=None):
        self.log.append((self.sim.now, "tick", payload))

    def _deliver_signal(self, payload=None):
        self.log.append((self.sim.now, "signal", payload))

    def _exchange(self, payload=None):
        self.log.append((self.sim.now, "exchange", payload))

    def _unlock(self, node):
        self.log.append((self.sim.now, "unlock", node))
        self.sim.schedule(self.sim.now + 1.0, self._tick, node)


def _faults(churn: bool) -> list:
    faults = [
        IidDrop(0.3),
        GilbertElliottDrop(drop_good=0.1, drop_bad=0.8, to_bad=0.3, to_good=0.5),
        Stragglers(0.5, slowdown=2.0),
    ]
    if churn:
        faults.append(CrashAtTimes({0: 0.5, 2: 1.5}, downtime=1.0))
    return faults


def _wired(churn: bool, seed: int = 7):
    tracer = TraceRecorder(kinds=("fault",))
    sim, wiring = prepare_faulty_simulator(
        N, _faults(churn), np.random.default_rng(seed), tracer=tracer
    )
    harness = Harness(sim)
    wiring.bind(harness)
    return sim, wiring, harness, tracer


def _pool_positions(wiring) -> list:
    return [
        (fault._pool._pos, len(fault._pool._buf))
        for fault in wiring.faults
        if hasattr(fault, "_pool")
    ]


#: Offsets from ``now`` on a coarse grid, so block entries tie with
#: each other and with the ticks that unlocks schedule.
offsets = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
nodes = st.integers(0, N - 1)
block = st.tuples(
    st.sampled_from(["tick", "signal", "exchange", "tally"]),
    st.lists(st.tuples(offsets, nodes), min_size=0, max_size=8),
    st.booleans(),  # payloads=None instead of a payload list
    st.sampled_from([0.0, 0.25, 1.0]),  # clock advance after the block
)


def _file(sim, harness, kind, entries, no_payloads, *, bulk: bool):
    now = sim.now
    times = [now + offset for offset, _ in entries]
    if kind == "tally":
        if bulk:
            sim.tally_at(times)
        else:
            for time in times:
                sim.tally_in(time - now)
        return
    action = {"tick": harness._tick, "signal": harness._deliver_signal,
              "exchange": harness._exchange}[kind]
    if kind == "tick":
        payloads = [node for _, node in entries]
    else:
        payloads = [(node, index) for index, (_, node) in enumerate(entries)]
    if no_payloads:
        payloads = None
    if bulk:
        handles = sim.schedule_many_at(np.asarray(times), action, payloads)
        assert len(handles) == len(times)
        return
    for index, time in enumerate(times):
        if payloads is None:
            sim.schedule_in(time - now, action)
        else:
            sim.schedule_in(time - now, action, payloads[index])


@pytest.mark.parametrize("churn", [False, True], ids=["no-churn", "churn"])
@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(block, min_size=1, max_size=12))
def test_block_seam_matches_scalar_seam(churn, blocks):
    runs = []
    for bulk in (True, False):
        sim, wiring, harness, tracer = _wired(churn)
        checkpoints = []
        for kind, entries, no_payloads, advance in blocks:
            _file(sim, harness, kind, entries, no_payloads, bulk=bulk)
            checkpoints.append(
                (sim.queue._next_seq, wiring.info(), _pool_positions(wiring),
                 sorted(sim._tally))
            )
            sim.run(until=sim.now + advance)
        sim.run()
        runs.append(
            (harness.log, checkpoints, sim.tallied, wiring.info(),
             wiring.rng.bit_generator.state,
             [(r.time, r.fields) for r in tracer.records])
        )
    assert runs[0] == runs[1]


#: (block kind, bad time): past and NaN times, and inf for tallies (an
#: infinitely late event is legal).
REJECTED = [
    (kind, bad)
    for kind in ("tick", "signal", "exchange", "tally")
    for bad in (0.5, math.nan, math.inf)
    if kind == "tally" or bad != math.inf
]


@pytest.mark.parametrize("churn", [False, True], ids=["no-churn", "churn"])
@pytest.mark.parametrize("kind,bad", REJECTED)
def test_rejected_block_changes_nothing(churn, kind, bad):
    sim, wiring, harness, _ = _wired(churn)
    sim.run(until=1.0)
    # Churn schedules crash events; put one harness event in the queue too.
    sim.schedule_in(0.25, harness._deliver_signal, (0, 0))
    before = (len(sim.queue), len(sim._tally), sim.queue._next_seq,
              _pool_positions(wiring), wiring.info())
    times = [2.0, bad, 3.0]
    if kind == "tally":
        with pytest.raises(SchedulingError):
            sim.tally_at(times)
    else:
        action = {"tick": harness._tick, "signal": harness._deliver_signal,
                  "exchange": harness._exchange}[kind]
        with pytest.raises(SchedulingError):
            sim.schedule_many_at(times, action, [(0, 1), (1, 2), (2, 3)])
    after = (len(sim.queue), len(sim._tally), sim.queue._next_seq,
             _pool_positions(wiring), wiring.info())
    assert after == before


def test_mismatched_payloads_rejected_before_filing():
    sim, wiring, harness, _ = _wired(False)
    with pytest.raises(SchedulingError):
        sim.schedule_many_at([1.0, 2.0], harness._deliver_signal, [(0, 0)])
    assert len(sim.queue) == 0
    assert _pool_positions(wiring) == [(0, 0), (0, 0)]


def test_faulty_multileader_run_keeps_plain_float_times():
    """Ticks and signals filed from numpy-free refills stay Python floats."""
    n = 200
    params = MultiLeaderParams(n=n, k=3, alpha0=2.0)
    rng = RngRegistry(5).stream("leak")
    tracer = TraceRecorder()
    simulators = []
    wirings = []

    def prepare():
        simulator, wiring = prepare_faulty_simulator(
            n, build_faults(drop=0.1, stragglers=0.1), rng, tracer=tracer
        )
        simulators.append(simulator)
        wirings.append(wiring)
        return simulator

    def instrument(sim_obj):
        wirings[-1].bind(sim_obj)

    result = run_multileader(
        params, biased_counts(n, 3, 2.0), rng, prepare=prepare, instrument=instrument
    )
    assert result.converged
    assert len(simulators) == 2
    for simulator in simulators:
        assert type(simulator.now) is float
        assert all(type(entry[0]) is float for entry in simulator.queue._heap)
    assert tracer.records
    assert all(type(record.time) is float for record in tracer.records)


NONNEGATIVE = dict(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(now=st.floats(**NONNEGATIVE), s=st.floats(**NONNEGATIVE))
@example(now=2.0**-53, s=1.0 + 2.0**-51)  # every rounding below is a tie
@example(now=2.0**-54, s=1.0 - 2.0**-53)  # the tick time is a power of two
def test_tick_block_refiling_is_exact(now, s):
    """``now + (t - now) == t`` for every tick time ``t = now + s`` (s >= 0)."""
    t = now + s
    assume(math.isfinite(t))
    assert now + (t - now) == t

