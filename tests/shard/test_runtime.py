"""Tick-barrier harness and shared-memory runtime tests.

These run real worker processes (fork start method) against tiny
payloads: the round cadence, control-word plumbing, error propagation,
and resource cleanup are all exercised end to end.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines.population import ThreeStateMajority
from repro.baselines.three_majority import ThreeMajority
from repro.core.schedule import FixedSchedule
from repro.engine.rng import RngRegistry
from repro.shard import (
    SharedArray,
    ShardError,
    ShardHarness,
    run_sharded_dynamics,
    run_sharded_population,
)
from repro.shard.runtime import ShardWorkerContext
from repro.shard.synchronous import (
    ShardedAggregateSynchronousSim,
    ShardedPerNodeSynchronousSim,
)
from repro.workloads import biased_counts


def _echo_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    """Write ``base + flag`` into this shard's slot each round."""
    slots = SharedArray.attach(payload["slots_spec"])
    try:
        while True:
            ctx.wait()
            if ctx.stopped:
                break
            slots.array[ctx.index] = payload["base"] + ctx.flag
            ctx.wait()
    finally:
        slots.close()


def _crash_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    ctx.wait()
    if payload.get("hard"):
        os._exit(3)
    raise ValueError(f"boom in shard {ctx.index}")


class TestSharedArray:
    def test_create_attach_roundtrip(self):
        owner = SharedArray.create((2, 3), np.int64)
        assert (owner.array == 0).all()
        owner.array[1, 2] = 41
        view = SharedArray.attach(owner.spec)
        assert view.array[1, 2] == 41
        view.array[0, 0] = -7
        assert owner.array[0, 0] == -7
        view.close()
        owner.close()

    def test_spec_is_picklable_metadata(self):
        owner = SharedArray.create((4,), np.float64)
        name, shape, dtype = owner.spec
        assert isinstance(name, str) and shape == (4,) and dtype == "<f8"
        owner.close()


class TestShardHarness:
    def test_round_cadence_and_control_words(self):
        slots = SharedArray.create((3,), np.float64)
        payloads = [{"slots_spec": slots.spec, "base": 10.0 * i} for i in range(3)]
        try:
            with ShardHarness(_echo_worker, payloads, phases=1) as harness:
                harness.step(flag=7.0)
                assert slots.array.tolist() == [7.0, 17.0, 27.0]
                harness.step(flag=9.0)
                assert slots.array.tolist() == [9.0, 19.0, 29.0]
                harness.stop()
                harness.stop()  # idempotent
        finally:
            slots.close()

    def test_worker_exception_surfaces_with_traceback(self):
        harness = ShardHarness(_crash_worker, [{}, {}], phases=1, timeout=30.0)
        with pytest.raises(ShardError, match="boom in shard"):
            harness.step()
        harness.close()  # idempotent after the error path already cleaned up

    def test_worker_death_is_detected_fast(self):
        harness = ShardHarness(
            _crash_worker, [{"hard": True}, {"hard": True}], phases=1, timeout=30.0
        )
        with pytest.raises(ShardError, match="died|failed"):
            harness.step()
        harness.close()


def _sleepy_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    """Shard ``payload['stuck']`` hangs before its first barrier wait."""
    import time

    if ctx.index == payload["stuck"]:
        time.sleep(600.0)
    while True:
        ctx.wait()
        if ctx.stopped:
            break
        ctx.wait()


class TestHungWorker:
    def test_barrier_timeout_names_the_stuck_shard(self):
        """A hung worker trips the barrier timeout within timeout + eps,
        and the error names exactly the shard that never arrived."""
        import time

        timeout = 2.0
        payloads = [{"stuck": 1} for _ in range(3)]
        harness = ShardHarness(_sleepy_worker, payloads, phases=1, timeout=timeout)
        started = time.monotonic()
        with pytest.raises(ShardError, match=r"stuck shard\(s\): \[1\]"):
            harness.step()
        elapsed = time.monotonic() - started
        # The controller must not wait out the sleep — detection is
        # bounded by the configured timeout plus teardown slack.
        assert elapsed < timeout + 3.0
        harness.close()  # idempotent; the error path already cleaned up


def _psm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestFailedConstructionReleasesSharedMemory:
    """A constructor that raises leaves no ``psm_*`` segment behind."""

    def test_harness_start_failing_partway(self):
        before = _psm_segments()
        slots = SharedArray.create((2,), np.float64)
        payloads = [
            {"slots_spec": slots.spec, "base": 1.0},
            # Unpicklable, so spawning the second worker fails after the
            # first one has started.
            {"slots_spec": slots.spec, "base": lambda: 0.0},
        ]
        with pytest.raises(Exception):
            ShardHarness(_echo_worker, payloads, phases=1, start_method="spawn")
        slots.close()
        shard_workers = [
            proc for proc in multiprocessing.active_children()
            if proc.name.startswith("shard-")
        ]
        assert not shard_workers
        assert _psm_segments() == before

    @pytest.mark.parametrize(
        "sim", [ShardedAggregateSynchronousSim, ShardedPerNodeSynchronousSim]
    )
    def test_synchronous_sim_bad_start_method(self, sim):
        before = _psm_segments()
        with pytest.raises(ValueError):
            sim(
                biased_counts(600, 3, 2.0),
                FixedSchedule(n=600, k=3, alpha0=2.0),
                RngRegistry(1).stream("leak"),
                shards=2,
                start_method="bogus",
            )
        assert _psm_segments() == before

    def test_dynamics_runner_bad_start_method(self):
        before = _psm_segments()
        with pytest.raises(ValueError):
            run_sharded_dynamics(
                ThreeMajority(),
                biased_counts(600, 3, 2.0),
                RngRegistry(1).stream("leak"),
                shards=2,
                start_method="bogus",
            )
        assert _psm_segments() == before

    def test_population_runner_bad_start_method(self):
        before = _psm_segments()
        with pytest.raises(ValueError):
            run_sharded_population(
                ThreeStateMajority(),
                biased_counts(600, 2, 2.0),
                RngRegistry(1).stream("leak"),
                shards=2,
                start_method="bogus",
            )
        assert _psm_segments() == before
