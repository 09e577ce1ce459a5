"""Python core vs compiled core for Algorithms 4+5: the same run, byte for byte.

:class:`~repro.multileader.consensus.MultiLeaderConsensusSim` runs an
eligible run's event loop in the compiled core
(:mod:`repro.core.fastcore`), fault seam included, and keeps the Python
engine as its oracle.  Every case below runs one config on both cores,
at the production pool block size, and compares everything a caller
can observe: the :class:`RunResult` (``info`` and ``births``
included), every leader's transitions and counters, every snapshot
property, the protocol counters, the simulator's clock and counters,
the pending event queue and its telemetry, each draw pool's position
(the fault models' pools included), ``FaultInjection.info()`` and the
generator's state.  A split run checks that the write-back leaves a
state either core continues exactly, and a derandomized Hypothesis
slice draws eligible configs; a slow slice of strongly biased, long runs
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
from repro.engine.tracing import TraceRecorder
from repro.multileader.clustering import ideal_clustering
from repro.multileader.consensus import MultiLeaderConsensusSim
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import build_faults, inject_faults, prepare_faulty_simulator
from repro.scenarios.topology import build_graph
from repro.workloads.opinions import biased_counts

pytestmark = pytest.mark.skipif(
    fastcore.load() is None,
    reason="compiled core unavailable (no working C compiler); CI requires it",
)

SNAPSHOTS = (
    "leader_of", "cols", "gens", "finished", "locked", "tmp_gen", "tmp_state", "matrix",
    "color_counts",
)


def _payload(payload):
    """A queue payload as plain values (a signal names its leader's node)."""
    if isinstance(payload, tuple) and not isinstance(payload[0], int):
        state, i, s, has_changed = payload
        return (state.node, i, s, has_changed)
    return payload


def observe(sim: MultiLeaderConsensusSim, result, wiring) -> dict:
    """Everything a caller can read after a run, as plain values."""
    queue = sorted(
        (time, seq, action.__name__, _payload(payload))
        for time, seq, action, payload in sim.sim.queue._heap
    )
    pools = [sim._tick_wait, sim._latency, sim._channel_delay, sim._neighbors._pool]
    if wiring is not None:
        pools += [fault._pool for fault in wiring.faults if hasattr(fault, "_pool")]
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
        "transitions": {node: list(state.transitions) for node, state in sim.leaders.items()},
        "leaders": {
            node: (state.gen, state.state, state.tick_count, state.gen_size)
            for node, state in sim.leaders.items()
        },
        "snapshots": {name: getattr(sim, name).tolist() for name in SNAPSHOTS},
        "ticks": (sim.total_ticks, sim.good_ticks, sim._credit, sim._birth_seen),
        "sim": (sim.sim.now, sim.sim.events_executed, sim.sim._stop_requested),
        "queue": queue,
        "queue_stats": (sim.sim.queue._next_seq, sim.sim.queue.stats()),
        "pools": [(pool._pos, len(pool._buf)) for pool in pools],
        "faults": None if wiring is None else (
            wiring.info(),
            [{k: v for k, v in vars(f).items() if k != "_pool"} for f in wiring.faults],
        ),
        "rng": sim._rng.bit_generator.state,
    }


@functools.lru_cache(maxsize=None)
def protocol_params(n, k, alpha) -> MultiLeaderParams:
    return MultiLeaderParams(n=n, k=k, alpha0=alpha)


def build(n, k, alpha, seed, *, faults=None, unclustered=0.0, graph=None, tracer=None,
          cls=MultiLeaderConsensusSim):
    """A consensus sim over an ideal clustering, a ``unclustered`` share left out."""
    params = protocol_params(n, k, alpha)
    rng = np.random.Generator(np.random.PCG64(seed))
    clustering = ideal_clustering(n, params.target_cluster_size)
    if unclustered:
        cut = int((1.0 - unclustered) * n)
        clustering.leader_of[cut:] = -1
        clustering.active_leaders = [l for l in clustering.active_leaders if l < cut]
    simulator, wiring = prepare_faulty_simulator(n, faults or [], rng, tracer=tracer)
    sim = cls(
        params, clustering, biased_counts(n, k, alpha), rng, graph=graph, simulator=simulator
    )
    if wiring is not None:
        wiring.bind(sim)
    return sim, wiring


def run_on(core: str, built, monkeypatch, **run_kwargs) -> dict:
    sim, wiring = built
    with monkeypatch.context() as patch:
        if core == "python":
            patch.setattr(fastcore, "_core", None)
        result = sim.run(**run_kwargs)
    assert sim.core == core
    return observe(sim, result, wiring)


CASES = {
    "kn-fault-free": (dict(n=300, k=3, alpha=2.0, seed=3, unclustered=0.2), {}),
    "bench-drop-stragglers": (
        dict(n=200, k=3, alpha=2.0, seed=5,
             faults=lambda: build_faults(drop=0.1, stragglers=0.1)),
        dict(epsilon=0.02),
    ),
    "bursty-drop": (
        dict(n=200, k=4, alpha=2.0, seed=7,
             faults=lambda: build_faults(drop=0.2, drop_model="bursty")),
        dict(epsilon=0.05),
    ),
    "stop-at-epsilon": (
        dict(n=300, k=3, alpha=2.0, seed=11, faults=lambda: build_faults(drop=0.05)),
        dict(epsilon=0.1, stop_at_epsilon=True),
    ),
    "truncated": (
        dict(n=300, k=3, alpha=2.0, seed=13,
             faults=lambda: build_faults(drop=0.1, stragglers=0.2)),
        dict(max_time=60.0),
    ),
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
def test_split_run_continues_exactly(second, monkeypatch):
    """Two run() calls; the second on either core continues the first exactly."""
    def config():
        return dict(n=200, k=3, alpha=2.0, seed=17,
                    faults=build_faults(drop=0.1, stragglers=0.1))

    reference = build(**config())
    python = [run_on("python", reference, monkeypatch, max_time=40.0)]
    python.append(run_on("python", reference, monkeypatch))
    split = build(**config())
    compiled = [run_on("c", split, monkeypatch, max_time=40.0)]
    compiled.append(run_on(second, split, monkeypatch))
    assert compiled == python


def core_for(core: str, sim: MultiLeaderConsensusSim, epsilon) -> str:
    """The core ``run()`` takes: it polls a decided start in Python."""
    counts = sim._color_counts
    target = None if epsilon is None else math.ceil((1.0 - epsilon) * sim.n)
    decided = max(counts) == sim.n or (target is not None and counts[sim.plurality] >= target)
    return "python" if decided else core


def split_runs(built, run_kwargs, max_time, split, first):
    """One config run twice on Python, and split at ``split · max_time`` across cores.

    ``built()`` builds the config afresh.  Returns the Python
    observations, the split run's, and the core each split segment took.
    """
    second = "c" if first == "python" else "python"
    epsilon = run_kwargs["epsilon"]
    with pytest.MonkeyPatch.context() as patch:
        reference = built()
        python = [
            run_on("python", reference, patch, max_time=split * max_time, **run_kwargs),
            run_on("python", reference, patch, max_time=max_time, **run_kwargs),
        ]
        split_run = built()
        cores = []
        compiled = []
        for core, until in ((first, split * max_time), (second, max_time)):
            cores.append(core_for(core, split_run[0], epsilon))
            compiled.append(run_on(cores[-1], split_run, patch, max_time=until, **run_kwargs))
    return python, compiled, cores


def faulty_build(n, k, alpha, seed, unclustered, drop_model, drop, stragglers):
    """A builder of one drawn config: drop model (or none), stragglers, unclustered share."""
    def built():
        faults = build_faults(
            drop=drop if drop_model else 0.0, drop_model=drop_model or "iid",
            stragglers=stragglers,
        )
        return build(n, k, alpha, seed, faults=faults, unclustered=unclustered)

    return built


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 150),
    k=st.integers(2, 4),
    alpha=st.floats(1.2, 3.0),
    unclustered=st.floats(0.0, 0.5),
    drop_model=st.sampled_from([None, "iid", "bursty"]),
    drop=st.floats(0.0, 0.4),
    stragglers=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.sampled_from([None, 0.05, 0.2]),
    stop_at_epsilon=st.booleans(),
    max_time=st.floats(10.0, 60.0),
    split=st.floats(0.0, 1.0),
    first=st.sampled_from(["python", "c"]),
)
def test_drawn_configs_agree(n, k, alpha, unclustered, drop_model, drop, stragglers, seed,
                             epsilon, stop_at_epsilon, max_time, split, first):
    """Eligible configs, drawn: Python throughout vs a run split at a drawn time."""
    built = faulty_build(n, k, alpha, seed, unclustered, drop_model, drop, stragglers)
    run_kwargs = dict(epsilon=epsilon, stop_at_epsilon=stop_at_epsilon)
    python, compiled, _ = split_runs(built, run_kwargs, max_time, split, first)
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
        k=st.integers(2, 4),
        alpha=st.floats(3.0, 8.0),
        unclustered=st.floats(0.0, 0.5),
        drop_model=st.sampled_from([None, "iid", "bursty"]),
        drop=st.floats(0.0, 0.4),
        stragglers=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([None, 0.05, 0.2]),
        stop_at_epsilon=st.booleans(),
        units=st.floats(5.0, 300.0),
        split=st.floats(0.0, 1.0),
        first=st.sampled_from(["python", "c"]),
    )
    def example(n, k, alpha, unclustered, drop_model, drop, stragglers, seed, epsilon,
                stop_at_epsilon, units, split, first):
        built = faulty_build(n, k, alpha, seed, unclustered, drop_model, drop, stragglers)
        run_kwargs = dict(epsilon=epsilon, stop_at_epsilon=stop_at_epsilon)
        max_time = units * protocol_params(n, k, alpha).time_unit
        python, compiled, cores = split_runs(built, run_kwargs, max_time, split, first)
        assert compiled == python
        for core, observed in zip(cores, compiled):
            stops[core, stop_of(observed, stop_at_epsilon)] += 1

    example()
    assert stops["c", "consensus"] and stops["c", "epsilon"], stops


class TimedSim(MultiLeaderConsensusSim):
    """Wraps only ``run``, like perfbench's timed pipeline."""

    def run(self, **kwargs):
        return super().run(**kwargs)


class OwnExchange(MultiLeaderConsensusSim):
    """Overrides a handler the core replaces."""

    def _exchange(self, payload):
        super()._exchange(payload)


def eligibility_case(name: str):
    config = dict(n=60, k=2, alpha=2.0, seed=23)
    run_kwargs = {"max_time": 5.0}
    if name == "subclass-wrapping-run":
        return build(**config, cls=TimedSim), run_kwargs
    if name == "injected-drop":
        sim, _ = build(**config)
        inject_faults(sim, build_faults(drop=0.1), sim._rng)
        return sim, run_kwargs
    if name == "churn":
        return build(**config, faults=build_faults(churn=0.5)), run_kwargs
    if name == "tracer":
        return build(**config, tracer=TraceRecorder()), run_kwargs
    if name == "sparse-graph":
        graph = build_graph("regular", 60, np.random.Generator(np.random.PCG64(1)), degree=4)
        return build(**config, graph=graph), run_kwargs
    if name == "record-every":
        return build(**config), {**run_kwargs, "record_every": 1.0}
    assert name == "overridden-exchange"
    return build(**config, cls=OwnExchange), run_kwargs


@pytest.mark.parametrize(
    "name, core",
    [
        ("subclass-wrapping-run", "c"),
        ("injected-drop", "c"),
        ("churn", "python"),
        ("tracer", "python"),
        ("sparse-graph", "python"),
        ("record-every", "python"),
        ("overridden-exchange", "python"),
    ],
)
def test_only_eligible_runs_enter_the_core(name, core):
    built, run_kwargs = eligibility_case(name)
    sim = built if isinstance(built, MultiLeaderConsensusSim) else built[0]
    sim.run(**run_kwargs)
    assert sim.core == core
