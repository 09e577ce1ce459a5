"""Python core vs compiled core: the same run, byte for byte.

:class:`~repro.core.single_leader.SingleLeaderSim` runs an eligible
run's event loop in the compiled core (:mod:`repro.core.fastcore`) and
keeps the Python engine as its oracle.  Every case below runs one
config on both cores, at the production pool block size, and compares
everything a caller can observe: the :class:`RunResult` (``info``,
``births`` and the trajectory included), the leader's phase log, every
snapshot property, the protocol counters, the simulator's clock and
counters, the pending event queue and tally stream, each draw pool's
position, and the generator's state.  A split run and a run continued
on the other core check that the write-back leaves a state the Python
engine continues exactly, and a derandomized Hypothesis slice draws
eligible configs; a slow slice of strongly biased, long runs
must reach consensus and the ε-stop on the compiled core too.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastcore
from repro.core.delayed_exchange import DelayedExchangeSim
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.latency import ConstantLatency
from repro.engine.simulator import Simulator
from repro.engine.tracing import TraceRecorder
from repro.scenarios.faults import IidDrop, inject_faults
from repro.scenarios.topology import build_graph
from repro.workloads.opinions import biased_counts

pytestmark = pytest.mark.skipif(
    fastcore.load() is None,
    reason="compiled core unavailable (no working C compiler); CI requires it",
)

SNAPSHOTS = ("cols", "gens", "locked", "seen_gen", "seen_prop", "matrix", "color_counts")


def observe(sim: SingleLeaderSim, result) -> dict:
    """Everything a caller can read after a run, as plain values."""
    queue = sorted(
        (time, seq, action.__name__, payload) for time, seq, action, payload in sim.sim.queue._heap
    )
    pools = (sim._tick_wait, sim._latency, sim._channel_delay, sim._neighbors._pool)
    return {
        "result": (
            result.converged,
            result.winner,
            result.plurality_color,
            result.elapsed,
            result.epsilon_convergence_time,
            result.final_color_counts.tolist(),
            result.trajectory,
            result.births,
            result.info,
        ),
        "phase_changes": list(sim.leader.phase_changes),
        "leader": (sim.leader.gen, sim.leader.prop, sim.leader.gen_size, sim.leader.tick_count),
        "snapshots": {name: getattr(sim, name).tolist() for name in SNAPSHOTS},
        "ticks": (sim.total_ticks, sim.good_ticks, sim.skipped_ticks, sim.refills),
        "sim": (sim.sim.now, sim.sim.events_executed, sim.sim.tallied, sim.sim._trigger_at),
        "pending": (len(sim.sim.queue), len(sim.sim._tally)),
        "queue": queue,
        "tally": sorted(sim.sim._tally),
        "next_seq": sim.sim.queue._next_seq,
        "remaining": [pool.remaining for pool in pools],
        "rng": sim._rng.bit_generator.state,
    }


@functools.lru_cache(maxsize=None)
def protocol_params(n, k, alpha, gamma) -> SingleLeaderParams:
    # Deriving the time unit costs a matrix exponential; share it.
    return SingleLeaderParams(n=n, k=k, alpha0=alpha, gen_size_fraction=gamma)


def build(n, k, alpha, seed, *, gamma=0.5, assignment=None) -> SingleLeaderSim:
    params = protocol_params(n, k, alpha, gamma)
    rng = np.random.Generator(np.random.PCG64(seed))
    return SingleLeaderSim(params, biased_counts(n, k, alpha), rng, assignment=assignment)


def run_on(core: str, sim: SingleLeaderSim, monkeypatch, **run_kwargs) -> dict:
    with monkeypatch.context() as patch:
        if core == "python":
            patch.setattr(fastcore, "_core", None)
        result = sim.run(**run_kwargs)
    assert sim.core == core
    return observe(sim, result)


CASES = {
    "n50-k2-to-consensus": (dict(n=50, k=2, alpha=3.0, seed=3), {}),
    "n300-k3-gamma-epsilon": (
        dict(n=300, k=3, alpha=2.0, seed=5, gamma=0.6),
        dict(epsilon=0.1),
    ),
    "n300-k8-stop-at-epsilon": (
        dict(n=300, k=8, alpha=3.0, seed=7),
        dict(epsilon=0.05, stop_at_epsilon=True),
    ),
    "n3000-k8-truncated": (dict(n=3000, k=8, alpha=2.0, seed=11), dict(max_time=8.0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cores_agree(case, monkeypatch):
    config, run_kwargs = CASES[case]
    python = run_on("python", build(**config), monkeypatch, **run_kwargs)
    compiled = run_on("c", build(**config), monkeypatch, **run_kwargs)
    assert compiled == python


def test_cores_agree_on_explicit_assignment(monkeypatch):
    n, k, alpha = 300, 3, 2.0
    # Colors laid out in contiguous blocks, not shuffled.
    assignment = np.repeat(np.arange(k), biased_counts(n, k, alpha))
    config = dict(n=n, k=k, alpha=alpha, seed=13, assignment=assignment)
    python = run_on("python", build(**config), monkeypatch)
    compiled = run_on("c", build(**config), monkeypatch)
    assert compiled == python


@pytest.mark.parametrize("second", ["python", "c"])
def test_split_run_continues_exactly(second, monkeypatch):
    """Two run() calls; the second on either core continues the first exactly."""
    config = dict(n=300, k=2, alpha=1.5, seed=17)
    reference = build(**config)
    python = [run_on("python", reference, monkeypatch, max_time=25.0)]
    python.append(run_on("python", reference, monkeypatch))
    split = build(**config)
    compiled = [run_on("c", split, monkeypatch, max_time=25.0)]
    compiled.append(run_on(second, split, monkeypatch))
    assert compiled == python


def core_for(core: str, sim: SingleLeaderSim, epsilon) -> str:
    """The core ``run()`` takes: it polls a decided start in Python."""
    counts = sim._color_counts
    target = None if epsilon is None else math.ceil((1.0 - epsilon) * sim.n)
    decided = max(counts) == sim.n or (target is not None and counts[sim.plurality] >= target)
    return "python" if decided else core


def split_runs(config, run_kwargs, max_time, split, first):
    """One config run twice on Python, and split at ``split · max_time`` across cores.

    Returns the Python observations, the split run's, and the core each
    split segment took.
    """
    second = "c" if first == "python" else "python"
    epsilon = run_kwargs["epsilon"]
    with pytest.MonkeyPatch.context() as patch:
        reference = build(**config)
        python = [
            run_on("python", reference, patch, max_time=split * max_time, **run_kwargs),
            run_on("python", reference, patch, max_time=max_time, **run_kwargs),
        ]
        split_run = build(**config)
        cores = []
        compiled = []
        for core, until in ((first, split * max_time), (second, max_time)):
            cores.append(core_for(core, split_run, epsilon))
            compiled.append(run_on(cores[-1], split_run, patch, max_time=until, **run_kwargs))
    return python, compiled, cores


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 200),
    k=st.integers(2, 5),
    alpha=st.floats(1.2, 3.0),
    gamma=st.floats(0.3, 0.8),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.sampled_from([None, 0.05, 0.2]),
    stop_at_epsilon=st.booleans(),
    max_time=st.floats(5.0, 150.0),
    split=st.floats(0.0, 1.0),
    first=st.sampled_from(["python", "c"]),
)
def test_drawn_configs_agree(n, k, alpha, gamma, seed, epsilon, stop_at_epsilon, max_time,
                             split, first):
    """Eligible configs, drawn: Python throughout vs a run split at a drawn time."""
    config = dict(n=n, k=k, alpha=alpha, seed=seed, gamma=gamma)
    run_kwargs = dict(epsilon=epsilon, stop_at_epsilon=stop_at_epsilon)
    python, compiled, _ = split_runs(config, run_kwargs, max_time, split, first)
    assert compiled == python


def stop_of(observed: dict, stop_at_epsilon: bool) -> str:
    """What ended a run: ``consensus``, the ``epsilon`` stop, or the ``horizon``."""
    converged, *_, elapsed, eps_time = observed["result"][:5]
    if converged:
        return "consensus"
    if stop_at_epsilon and eps_time == elapsed:
        return "epsilon"
    return "horizon"


@pytest.mark.slow
def test_long_drawn_configs_reach_every_stop():
    """Strong biases over long horizons: the drawn runs stop every way, in C too.

    Like :func:`test_drawn_configs_agree`, but with ``alpha`` in
    ``[3, 8]`` and horizons up to 300 time units, so the compiled
    segments reach consensus and the ε-stop, not only the horizon.
    """
    stops = collections.Counter()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(40, 150),  # every color keeps a node at alpha = 8
        k=st.integers(2, 5),
        alpha=st.floats(3.0, 8.0),
        gamma=st.floats(0.3, 0.8),
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([None, 0.05, 0.2]),
        stop_at_epsilon=st.booleans(),
        units=st.floats(5.0, 300.0),
        split=st.floats(0.0, 1.0),
        first=st.sampled_from(["python", "c"]),
    )
    def example(n, k, alpha, gamma, seed, epsilon, stop_at_epsilon, units, split, first):
        config = dict(n=n, k=k, alpha=alpha, seed=seed, gamma=gamma)
        run_kwargs = dict(epsilon=epsilon, stop_at_epsilon=stop_at_epsilon)
        max_time = units * protocol_params(n, k, alpha, gamma).time_unit
        python, compiled, cores = split_runs(config, run_kwargs, max_time, split, first)
        assert compiled == python
        for core, observed in zip(cores, compiled):
            stops[core, stop_of(observed, stop_at_epsilon)] += 1

    example()
    assert stops["c", "consensus"] and stops["c", "epsilon"], stops


class TimedSim(SingleLeaderSim):
    """Wraps only ``__init__`` and ``run``, like perfbench's timed subclass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)

    def run(self, **kwargs):
        return super().run(**kwargs)


def eligibility_case(name: str):
    n, k, alpha = 60, 2, 2.0
    params = protocol_params(n, k, alpha, 0.5)
    rng = np.random.Generator(np.random.PCG64(23))
    counts = biased_counts(n, k, alpha)
    run_kwargs = {"max_time": 5.0}
    if name == "subclass-wrapping-run":
        return TimedSim(params, counts, rng), run_kwargs
    if name == "delayed-exchange":
        return DelayedExchangeSim(params, counts, rng), run_kwargs
    if name == "tracer":
        return SingleLeaderSim(params, counts, rng, tracer=TraceRecorder()), run_kwargs
    if name == "pre-built-simulator":
        return SingleLeaderSim(params, counts, rng, simulator=Simulator()), run_kwargs
    if name == "injected-faults":
        sim = SingleLeaderSim(params, counts, rng)
        inject_faults(sim, [IidDrop(0.1)], rng)
        return sim, run_kwargs
    if name == "latency-model":
        return SingleLeaderSim(params, counts, rng, latency_model=ConstantLatency(1.0)), run_kwargs
    if name == "sparse-graph":
        graph = build_graph("regular", n, rng, degree=4)
        return SingleLeaderSim(params, counts, rng, graph=graph), run_kwargs
    assert name == "record-every"
    return SingleLeaderSim(params, counts, rng), {**run_kwargs, "record_every": 1.0}


@pytest.mark.parametrize(
    "name, core",
    [
        ("subclass-wrapping-run", "c"),
        ("delayed-exchange", "python"),
        ("tracer", "python"),
        ("pre-built-simulator", "python"),
        ("injected-faults", "python"),
        ("latency-model", "python"),
        ("sparse-graph", "python"),
        ("record-every", "python"),
    ],
)
def test_only_the_default_path_enters_the_core(name, core):
    sim, run_kwargs = eligibility_case(name)
    sim.run(**run_kwargs)
    assert sim.core == core
