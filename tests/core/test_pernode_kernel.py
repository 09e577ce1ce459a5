"""The compiled per-node round vs its numpy oracle.

:func:`repro.core.synchronous.pernode_round` draws both contact vectors
with numpy and then runs Algorithm 1's round either in the compiled
extension's single pass (``pernode_round`` in ``_pncore.c``) or in the
numpy passes it replaces: the self-skip shift, the gathers,
:func:`~repro.core.synchronous.pernode_update` and
:func:`~repro.core.synchronous.state_tally`.  The kernel cases below
compare the two on random states of both state dtypes, every flag and
slices that start past 0; the engine cases check that the unsharded and
the sharded per-node engines name the core they took and give the same
:class:`~repro.core.results.RunResult`, byte for byte, on either core.
"""

from __future__ import annotations

import functools
import itertools
import pickle

import numpy as np
import pytest

from repro.core import fastcore
from repro.core.schedule import AlwaysTwoChoices, FixedSchedule
from repro.core.synchronous import (
    PerNodeSynchronousSim,
    pernode_round,
    pernode_update,
    run_synchronous,
    state_dtype,
    state_tally,
)
from repro.engine.rng import RngRegistry
from repro.scenarios.round_faults import build_round_faults, prepare_round_faults
from repro.scenarios.topology import build_graph
from repro.shard.synchronous import ShardedPerNodeSynchronousSim, run_sharded_synchronous
from repro.workloads import biased_counts

KERNEL = fastcore.load()

needs_kernel = pytest.mark.skipif(
    KERNEL is None,
    reason="compiled core unavailable (no working C compiler); CI requires it",
)


@pytest.fixture
def python_core(monkeypatch):
    """Force the numpy passes, as a failed build does."""
    monkeypatch.setattr(fastcore, "_core", None)


def random_state(rng, n, k, rows, span=None):
    """Full state arrays in ``state_dtype``, generations below ``span``
    (default ``rows - 1``, the most the engines ever hold).
    """
    dtype = state_dtype(rows, k)
    gens = rng.integers(rows - 1 if span is None else span, size=n).astype(dtype)
    cols = rng.integers(k, size=n).astype(dtype)
    return gens, cols


def oracle(first, second, gens, cols, start, k, size, two_choices, active, skip_self):
    """The numpy passes: shift, gathers, ``pernode_update``, ``state_tally``."""
    m = first.size
    if skip_self:
        own = np.arange(start, start + m)
        first = first + (first >= own)
        second = second + (second >= own)
    new_gens, new_cols = pernode_update(
        gens[first], cols[first], gens[second], cols[second],
        gens[start:start + m], cols[start:start + m], two_choices, active,
    )
    return new_gens, new_cols, state_tally(new_gens, new_cols, k, size)


#: (n, k, rows): ``int8`` state, and ``int64`` state with rows > 127.
SHAPES = {"int8": (3000, 4, 12), "int64": (2000, 3, 140)}


@needs_kernel
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("start, m", [(0, None), (700, 900)])
def test_kernel_matches_numpy_passes(shape, start, m):
    n, k, rows = SHAPES[shape]
    m = n if m is None else m
    rng = np.random.default_rng([n, start])
    # Few generations and colors, so equal pairs (two-choices) are common.
    gens, cols = random_state(rng, n, k, rows, span=4)
    gens[rng.integers(n, size=n // 10)] = rows - 2
    cases = itertools.product((False, True), (False, True), (False, True))
    for two_choices, masked, skip_self in cases:
        high = n - 1 if skip_self else n
        first = rng.integers(high, size=m)
        second = rng.integers(high, size=m)
        active = rng.random(m) < 0.7 if masked else None
        out = (np.empty(m, gens.dtype), np.empty(m, cols.dtype), np.full(rows * k, -1))
        KERNEL.pernode_round(
            first, second, gens, cols, start, k, two_choices, active, skip_self, *out
        )
        expected = oracle(
            first, second, gens, cols, start, k, rows * k, two_choices, active, skip_self
        )
        for got, want in zip(out, expected):
            assert got.tolist() == want.tolist(), (two_choices, masked, skip_self)


@needs_kernel
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_round_consumes_the_same_draws_on_both_cores(shape):
    n, k, rows = SHAPES[shape]
    gens, cols = random_state(np.random.default_rng(5), n, k, rows)
    results = []
    for kernel in (KERNEL, None):
        rng = np.random.default_rng(9)
        out = (np.empty(800, gens.dtype), np.empty(800, cols.dtype), np.empty(rows * k, np.int64))
        pernode_round(rng, gens, cols, True, out, k=k, start=n - 800, kernel=kernel)
        results.append([a.tolist() for a in out] + [rng.bit_generator.state])
    assert results[0] == results[1]


@needs_kernel
def test_sparse_round_matches_on_both_cores():
    n, k, rows = 400, 3, 10
    graph = build_graph("regular", n, np.random.default_rng(2), degree=6)
    gens, cols = random_state(np.random.default_rng(3), n, k, rows)
    results = []
    for kernel in (KERNEL, None):
        rng = np.random.default_rng(4)
        out = (np.empty_like(gens), np.empty_like(cols), np.empty(rows * k, np.int64))
        pernode_round(rng, gens, cols, False, out, k=k, graph=graph, kernel=kernel)
        results.append([a.tolist() for a in out] + [rng.bit_generator.state])
    assert results[0] == results[1]


@needs_kernel
def test_kernel_rejects_inconsistent_arrays():
    n, k, rows = 100, 3, 6
    gens, cols = random_state(np.random.default_rng(1), n, k, rows)
    draws = np.zeros(n, np.int64)
    tally = np.empty(rows * k, np.int64)
    with pytest.raises(ValueError, match="overlap"):
        KERNEL.pernode_round(draws, draws, gens, cols, 0, k, True, None, True, gens, cols.copy(), tally)
    with pytest.raises(TypeError, match="one dtype"):
        KERNEL.pernode_round(
            draws, draws, gens, cols.astype(np.int64), 0, k, True, None, True,
            np.empty_like(gens), np.empty_like(cols), tally,
        )
    with pytest.raises(ValueError, match="start"):
        KERNEL.pernode_round(
            draws[:10], draws[:10], gens, cols, n - 5, k, True, None, True,
            np.empty(10, gens.dtype), np.empty(10, cols.dtype), tally,
        )
    bad = draws.copy()
    bad[7] = n
    with pytest.raises(IndexError, match="contact"):
        KERNEL.pernode_round(
            bad, draws, gens, cols, 0, k, True, None, False,
            np.empty_like(gens), np.empty_like(cols), tally,
        )
    with pytest.raises(ValueError, match="tally"):
        KERNEL.pernode_round(
            draws, draws, np.ones_like(gens), cols, 0, k, True, None, True,
            np.empty_like(gens), np.empty_like(cols), tally[:k],
        )


def unsharded_run(case: str, seed: int):
    """One unsharded per-node run: the sim's core and the pickled result."""
    n, k = 600, 3
    rng = RngRegistry(seed).stream("pernode-kernel")
    schedule = FixedSchedule(n=n, k=k, alpha0=2.0)
    kwargs = {}
    if case == "wide_int64":
        schedule = AlwaysTwoChoices(max_generation=130)
    elif case == "round_faults":
        kwargs["round_faults"] = prepare_round_faults(
            n, build_round_faults(drop=0.1, churn=0.05, stragglers=0.1), rng
        )
    elif case == "sparse":
        kwargs["graph"] = build_graph("regular", n, rng, degree=16)
    sim = PerNodeSynchronousSim(biased_counts(n, k, 2.0), schedule, rng, **kwargs)
    result = sim.run(max_steps=400, epsilon=0.05, record_trajectory=True)
    return sim.core, pickle.dumps(result)


UNSHARDED_CASES = ("fixed", "wide_int64", "round_faults", "sparse")


@needs_kernel
@pytest.mark.parametrize("case", UNSHARDED_CASES)
def test_unsharded_runs_identical_on_both_cores(case, monkeypatch):
    core, compiled = unsharded_run(case, 32)
    monkeypatch.setattr(fastcore, "_core", None)
    fallback, numpy_passes = unsharded_run(case, 32)
    assert (core, fallback) == ("c", "python")
    assert compiled == numpy_passes


def test_fallback_core_is_python(python_core):
    core, _ = unsharded_run("fixed", 33)
    assert core == "python"


def sharded_run(schedule, *, start_method=None):
    """A 2-shard per-node run at n=600: the controller's core and the result."""
    counts = biased_counts(600, 4, 2.0)
    sim = ShardedPerNodeSynchronousSim(
        counts, schedule, RngRegistry(41).stream("pernode-kernel"), shards=2,
        start_method=start_method,
    )
    result = sim.run(max_steps=300, epsilon=0.05, record_trajectory=True)
    return sim.core, pickle.dumps(result)


@needs_kernel
@pytest.mark.parametrize(
    "schedule",
    [
        lambda: FixedSchedule(n=600, k=4, alpha0=2.0),
        lambda: AlwaysTwoChoices(max_generation=130),
    ],
    ids=["int8", "int64"],
)
def test_sharded_runs_identical_on_both_cores(schedule, monkeypatch):
    core, compiled = sharded_run(schedule())
    monkeypatch.setattr(fastcore, "_core", None)
    fallback, numpy_passes = sharded_run(schedule())
    assert (core, fallback) == ("c", "python")
    assert compiled == numpy_passes


@needs_kernel
def test_fork_and_spawn_agree_on_the_c_core():
    runs = [
        sharded_run(FixedSchedule(n=600, k=4, alpha0=2.0), start_method=method)
        for method in ("fork", "spawn")
    ]
    assert runs[0][0] == runs[1][0] == "c"
    assert runs[0][1] == runs[1][1]


def test_spawned_shards_follow_the_controllers_python_core(python_core):
    # A spawned worker imports a fresh fastcore; the payload's choice,
    # not its own load(), decides its core.
    fork = sharded_run(FixedSchedule(n=600, k=4, alpha0=2.0), start_method="fork")
    spawn = sharded_run(FixedSchedule(n=600, k=4, alpha0=2.0), start_method="spawn")
    assert fork[0] == spawn[0] == "python"
    assert fork[1] == spawn[1]


@needs_kernel
def test_one_shard_is_the_unsharded_engine_on_the_c_core():
    results = [
        run(
            biased_counts(600, 4, 2.0), FixedSchedule(n=600, k=4, alpha0=2.0),
            RngRegistry(43).stream("pernode-kernel"), engine="pernode",
            max_steps=300, record_trajectory=True,
        )
        for run in (functools.partial(run_sharded_synchronous, shards=1), run_synchronous)
    ]
    assert pickle.dumps(results[0]) == pickle.dumps(results[1])


def test_aggregate_engine_never_loads_the_extension(monkeypatch):
    def no_load():
        raise AssertionError("the aggregate engine loaded the extension")

    monkeypatch.setattr(fastcore, "_core", fastcore._UNLOADED)
    monkeypatch.setattr(fastcore, "_load_or_build", no_load)
    result = run_synchronous(
        biased_counts(600, 4, 2.0), FixedSchedule(n=600, k=4, alpha0=2.0),
        RngRegistry(44).stream("pernode-kernel"), engine="aggregate", max_steps=300,
    )
    assert result.converged
