"""Python core vs compiled core for the clustering phase: the same run, byte for byte.

:class:`~repro.multileader.clustering.ClusteringSim` runs an eligible
run's event loop in the compiled core (:mod:`repro.core.fastcore`),
fault seam included, and keeps the Python engine as its oracle.  Every
case below runs one config on both cores, at the production pool block
size, and compares everything a caller can observe: the
:class:`Clustering` (``switch_times`` as an ordered item list), the
leader and lock snapshots, ``active_leaders`` before sorting, the
sampled trajectory, every leader's bookkeeping, the protocol counters,
the simulator's clock and counters, the pending event queue (which must
also be a valid ``heapq`` heap) and its telemetry, each draw pool's
position (the fault models' pools included), ``FaultInjection.info()``
and the generator's state.  One case starts with events tied at equal
times, so pops rest on sequence numbers alone.  Split
runs check that the write-back leaves a state either core continues
exactly, and a derandomized Hypothesis slice draws eligible configs; a
slow slice with long horizons must reach the phase's stop in C too.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastcore
from repro.engine.simulator import Simulator
from repro.engine.tracing import TraceRecorder
from repro.errors import SimulationError
from repro.multileader.clustering import ClusteringSim
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import build_faults, inject_faults, prepare_faulty_simulator
from repro.scenarios.topology import build_graph

pytestmark = pytest.mark.skipif(
    fastcore.load() is None,
    reason="compiled core unavailable (no working C compiler); CI requires it",
)


def _items(mapping: dict) -> list:
    return list(mapping.items())


def assert_heaps(sim: Simulator) -> None:
    """The Python engine continues from these lists: both must be ``heapq`` heaps."""
    heap, tally = sim._heap, sim._tally
    assert all(heap[(i - 1) >> 1][:2] < heap[i][:2] for i in range(1, len(heap)))
    assert all(tally[(i - 1) >> 1] <= tally[i] for i in range(1, len(tally)))


def quantize(sim: Simulator, grid: float) -> None:
    """Round every pending event up to the grid.

    Events then share times exactly and pop by sequence number alone.
    """
    heap = sim._heap
    heap[:] = [(math.ceil(time / grid) * grid, *rest) for time, *rest in heap]
    heapq.heapify(heap)


def observe(sim: ClusteringSim, outcome, wiring) -> dict:
    """Everything a caller can read after a run, as plain values."""
    assert_heaps(sim.sim)
    queue = sorted(
        (time, seq, action.__name__, payload)
        for time, seq, action, payload in sim.sim._heap
    )
    pools = [sim._tick_wait, sim._latency, sim._channel_delay, sim._neighbors._pool]
    if wiring is not None:
        pools += [fault._pool for fault in wiring.faults if hasattr(fault, "_pool")]
    if isinstance(outcome, Exception):
        clustering = repr(outcome)
    else:
        clustering = (
            outcome.leader_of.tolist(),
            outcome.active_leaders,
            _items(outcome.switch_times),
            outcome.elapsed,
        )
    return {
        "clustering": clustering,
        "leader_of": sim.leader_of.tolist(),
        "locked": sim.locked.tolist(),
        "active_leaders": list(sim.active_leaders),
        "trajectory": list(sim.clustered_trajectory),
        "leaders": [
            _items(sim.size), _items(sim.signal_count), _items(sim.ready), _items(sim.informed),
            _items(sim.switch_times),
        ],
        "broadcast": (
            sim._informed_count, sim._total_leaders, sim._broadcast_started,
            sim.first_ready_time,
        ),
        "ticks": (sim.total_ticks, sim.good_ticks, sim._credit),
        "sim": (sim.sim.now, sim.sim.events_executed, sim.sim._stop_requested),
        "queue": queue,
        "queue_stats": (sim.sim._next_seq, sim.sim.flushes, sim.sim.flushed_events),
        "pools": [(pool._pos, len(pool._buf)) for pool in pools],
        "faults": None if wiring is None else (
            wiring.info(),
            [{k: v for k, v in vars(f).items() if k != "_pool"} for f in wiring.faults],
        ),
        "rng": sim._rng.bit_generator.state,
    }


@functools.lru_cache(maxsize=None)
def protocol_params(n, leader_probability=None) -> MultiLeaderParams:
    return MultiLeaderParams(n=n, k=2, alpha0=2.0, leader_probability=leader_probability)


def build(n, seed, *, faults=None, leader_probability=None, graph=None, tracer=None,
          grid=None, cls=ClusteringSim, **sim_kwargs):
    """A clustering phase over a (possibly fault-wrapped) simulator of its own."""
    params = protocol_params(n, leader_probability)
    rng = np.random.Generator(np.random.PCG64(seed))
    simulator, wiring = prepare_faulty_simulator(n, faults or [], rng, tracer=tracer)
    sim = cls(params, rng, graph=graph, simulator=simulator, **sim_kwargs)
    if wiring is not None:
        wiring.bind(sim)
    if grid is not None:
        quantize(sim.sim, grid)
    return sim, wiring


def run_on(core: str, built, patch, **run_kwargs) -> dict:
    sim, wiring = built
    with patch.context() as context:
        if core == "python":
            context.setattr(fastcore, "_core", None)
        try:
            outcome = sim.run(**run_kwargs)
        except SimulationError as exc:  # no active cluster by max_time
            outcome = exc
    assert sim.core == core
    return observe(sim, outcome, wiring)


CASES = {
    "kn-fault-free": (dict(n=300, seed=3), {}),
    "bench-drop-stragglers": (
        dict(n=200, seed=5, faults=lambda: build_faults(drop=0.1, stragglers=0.1)), {},
    ),
    "bursty-drop": (
        dict(n=200, seed=7, faults=lambda: build_faults(drop=0.2, drop_model="bursty")), {},
    ),
    "stragglers-only": (
        dict(n=250, seed=9, faults=lambda: build_faults(stragglers=0.3, straggler_slowdown=6.0)),
        dict(sample_every=0.5),
    ),
    "many-leaders": (
        dict(n=400, seed=11, leader_probability=0.3, faults=lambda: build_faults(drop=0.05)),
        dict(sample_every=2),
    ),
    "truncated": (
        dict(n=300, seed=13, faults=lambda: build_faults(drop=0.1, stragglers=0.2)),
        dict(max_time=6.0),
    ),
    "equal-times": (dict(n=200, seed=19, grid=0.25), {}),
}


def _config(case):
    config, run_kwargs = CASES[case]
    config = dict(config)
    if "faults" in config:
        config["faults"] = config["faults"]()
    return config, run_kwargs


@pytest.mark.parametrize("case", sorted(CASES))
def test_cores_agree(case, monkeypatch):
    config, run_kwargs = _config(case)
    python = run_on("python", build(**config), monkeypatch, **run_kwargs)
    config, run_kwargs = _config(case)
    compiled = run_on("c", build(**config), monkeypatch, **run_kwargs)
    assert compiled == python


@pytest.mark.parametrize("second", ["python", "c"])
@pytest.mark.parametrize("first", ["python", "c"])
def test_split_run_continues_exactly(first, second, monkeypatch):
    """Two run() calls; a run split across the cores continues exactly."""
    def built():
        return build(n=200, seed=17, faults=build_faults(drop=0.1, stragglers=0.1))

    reference = built()
    python = [run_on("python", reference, monkeypatch, max_time=8.0)]
    python.append(run_on("python", reference, monkeypatch))
    split = built()
    compiled = [run_on(first, split, monkeypatch, max_time=8.0)]
    compiled.append(run_on(second, split, monkeypatch))
    assert compiled == python


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 500),
    leader_probability=st.floats(0.01, 0.2),
    drop_model=st.sampled_from([None, "iid", "bursty"]),
    drop=st.floats(0.0, 0.4),
    stragglers=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    max_time=st.floats(10.0, 80.0),
    split=st.floats(0.0, 1.0),
    first=st.sampled_from(["python", "c"]),
)
def test_drawn_configs_agree(n, leader_probability, drop_model, drop, stragglers, seed,
                             max_time, split, first):
    """Eligible configs, drawn: Python throughout vs a run split at a drawn time."""
    def built():
        faults = build_faults(
            drop=drop if drop_model else 0.0, drop_model=drop_model or "iid",
            stragglers=stragglers,
        )
        return build(n, seed, faults=faults, leader_probability=leader_probability)

    second = "c" if first == "python" else "python"
    with pytest.MonkeyPatch.context() as patch:
        reference = built()
        python = [
            run_on("python", reference, patch, max_time=split * max_time),
            run_on("python", reference, patch, max_time=max_time),
        ]
        split_run = built()
        compiled = [
            run_on(first, split_run, patch, max_time=split * max_time),
            run_on(second, split_run, patch, max_time=max_time),
        ]
    assert compiled == python


@pytest.mark.slow
def test_long_drawn_configs_reach_the_stop():
    """Horizons long enough that clustering finishes, in C too.

    Like :func:`test_drawn_configs_agree`, but with horizons of 60 to
    300 time units, so the drawn runs end at the phase's stop (every
    leader learned of the switch), not only at the horizon; the slice
    fails unless some compiled segment reaches that stop.
    """
    stops = collections.Counter()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(20, 400),
        leader_probability=st.floats(0.01, 0.2),
        drop_model=st.sampled_from([None, "iid", "bursty"]),
        drop=st.floats(0.0, 0.4),
        stragglers=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        max_time=st.floats(60.0, 300.0),
        split=st.floats(0.0, 1.0),
        first=st.sampled_from(["python", "c"]),
    )
    def example(n, leader_probability, drop_model, drop, stragglers, seed, max_time, split,
                first):
        def built():
            faults = build_faults(
                drop=drop if drop_model else 0.0, drop_model=drop_model or "iid",
                stragglers=stragglers,
            )
            return build(n, seed, faults=faults, leader_probability=leader_probability)

        second = "c" if first == "python" else "python"
        with pytest.MonkeyPatch.context() as patch:
            reference = built()
            python = [
                run_on("python", reference, patch, max_time=split * max_time),
                run_on("python", reference, patch, max_time=max_time),
            ]
            split_run = built()
            compiled = [
                run_on(first, split_run, patch, max_time=split * max_time),
                run_on(second, split_run, patch, max_time=max_time),
            ]
        assert compiled == python
        for core, observed in zip((first, second), compiled):
            stops[core, "stop" if observed["sim"][2] else "horizon"] += 1

    example()
    assert stops["c", "stop"], stops


class TimedSim(ClusteringSim):
    """Wraps only ``run``, like perfbench's timed pipeline."""

    def run(self, **kwargs):
        return super().run(**kwargs)


class OwnExchange(ClusteringSim):
    """Overrides a handler the core replaces."""

    def _exchange(self, payload):
        super()._exchange(payload)


def eligibility_case(name: str):
    config = dict(n=60, seed=23)
    if name == "subclass-wrapping-run":
        return build(**config, cls=TimedSim)
    if name == "injected-drop":
        sim, _ = build(**config)
        return sim, inject_faults(sim, build_faults(drop=0.1), sim._rng)
    if name == "churn":
        return build(**config, faults=build_faults(churn=0.5))
    if name == "tracer":
        return build(**config, tracer=TraceRecorder())
    if name == "sparse-graph":
        graph = build_graph("regular", 60, np.random.Generator(np.random.PCG64(1)), degree=4)
        return build(**config, graph=graph)
    if name == "faithful-pause":
        return build(**config, faithful_pause=True)
    assert name == "overridden-exchange"
    return build(**config, cls=OwnExchange)


@pytest.mark.parametrize(
    "name, core",
    [
        ("subclass-wrapping-run", "c"),
        ("injected-drop", "c"),
        ("churn", "python"),
        ("tracer", "python"),
        ("sparse-graph", "python"),
        ("faithful-pause", "python"),
        ("overridden-exchange", "python"),
    ],
)
def test_only_eligible_runs_enter_the_core(name, core):
    sim, _ = eligibility_case(name)
    try:
        sim.run(max_time=5.0)
    except SimulationError:
        pass
    assert sim.core == core
