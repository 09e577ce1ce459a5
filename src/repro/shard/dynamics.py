"""Sharded runner for the anonymous opinion dynamics (baselines).

:func:`run_sharded_dynamics` runs the loop of
:func:`repro.baselines.base.run_dynamics` itself — same trace records,
trajectory, epsilon time, ``dynamics.*`` counters and
:class:`~repro.core.results.RunResult` — with a stepper in place of the
in-process round: each step is one round of the generic count engine
(:mod:`repro.shard.count_engine`), whose per-shard multinomials sum to
the unsharded round's law exactly. ``shards=1`` delegates to the
unsharded runner untouched.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import OpinionDynamics, _run_rounds, run_dynamics
from repro.core.results import RunResult
from repro.shard.count_engine import DynamicsKernel, count_harness
from repro.shard.partition import check_shard_size, partition_counts, shard_seed_sequences
from repro.shard.runtime import SharedArray
from repro.workloads.bias import validate_counts

__all__ = ["run_sharded_dynamics"]


class _ShardedDynamicsEngine:
    """Shared count slots, one harness round per :meth:`step`.

    Steps like the graph engine of :mod:`repro.baselines.base` and
    returns the summed slots; the workers draw from their own
    substreams, so ``step`` ignores the controller's generator.
    """

    def __init__(
        self, dynamics: OpinionDynamics, counts: np.ndarray, rng, shards: int, *,
        start_method: str | None = None, metrics=None,
    ):
        self._slots = self._harness = None
        try:
            initial_state = dynamics.initial_state(counts)
            self._slots = SharedArray.create((shards, initial_state.size), np.int64)
            self._slots.array[:] = partition_counts(initial_state, shards)
            seeds = shard_seed_sequences(rng, shards)
            # DynamicsKernel is looked up at call time: a test may swap it.
            self._harness = count_harness(
                self._slots, DynamicsKernel(dynamics), seeds,
                start_method=start_method, metrics=metrics,
            )
        except BaseException:
            self.close()
            raise

    def step(self, rng, *, round_faults=None, now: float = 0.0) -> np.ndarray:
        self._harness.step()
        return self._slots.array.sum(axis=0)

    def close(self) -> None:
        """Stop the workers and release shared memory (idempotent)."""
        if self._harness is not None:
            self._harness.close()
            self._harness = None
        if self._slots is not None:
            self._slots.close()
            self._slots = None


def run_sharded_dynamics(
    dynamics: OpinionDynamics,
    counts: np.ndarray,
    rng: np.random.Generator,
    *,
    shards: int,
    max_rounds: int = 100_000,
    epsilon: float | None = None,
    record_trajectory: bool = False,
    tracer=None,
    start_method: str | None = None,
    metrics=None,
) -> RunResult:
    """Run ``dynamics`` to consensus across ``shards`` worker processes.

    A worker that dies fails the run with
    :class:`~repro.shard.runtime.ShardError`; under a supervised sweep
    the retry reruns it from the same substream, byte-identically.
    """
    loop = dict(
        max_rounds=max_rounds, epsilon=epsilon, record_trajectory=record_trajectory,
        tracer=tracer, metrics=metrics,
    )
    if int(shards) == 1:
        return run_dynamics(dynamics, counts, rng, **loop)
    counts = validate_counts(counts)
    engine = _ShardedDynamicsEngine(
        dynamics, counts, rng, check_shard_size(int(counts.sum()), shards),
        start_method=start_method, metrics=metrics,
    )
    try:
        return _run_rounds(dynamics, counts, rng, engine, **loop)
    finally:
        engine.close()
