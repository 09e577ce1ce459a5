"""Sharded runner for the anonymous opinion dynamics (baselines).

:func:`run_sharded_dynamics` mirrors
:func:`repro.baselines.base.run_dynamics` — same bookkeeping, same
:class:`~repro.core.results.RunResult` contract — with the per-round
multinomial fanned out over shard workers through the generic count
engine (:mod:`repro.shard.count_engine`), which is
distribution-identical to the unsharded round. ``shards=1`` delegates
to the unsharded runner untouched.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import OpinionDynamics, run_dynamics
from repro.core.results import RunResult, StepStats
from repro.engine.tracing import NULL_TRACER
from repro.errors import ConfigurationError
from repro.shard.count_engine import DynamicsKernel, count_worker
from repro.shard.partition import partition_counts, shard_seed_sequences
from repro.shard.runtime import ShardHarness, SharedArray
from repro.workloads.bias import multiplicative_bias, plurality_color, validate_counts

__all__ = ["run_sharded_dynamics"]


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
    resumable: bool = False,
    checkpoint_every: int = 100,
    max_restarts: int = 2,
) -> RunResult:
    """Run ``dynamics`` to consensus across ``shards`` worker processes.

    ``resumable=True`` adds the count-engine checkpoint–restart seam:
    count slots and per-shard generator states snapshot every
    ``checkpoint_every`` rounds, and a worker failure restarts the
    round loop from the last checkpoint (bit-identical recovery — see
    :mod:`repro.shard.recovery`).
    """
    if int(shards) == 1:
        return run_dynamics(
            dynamics,
            counts,
            rng,
            max_rounds=max_rounds,
            epsilon=epsilon,
            record_trajectory=record_trajectory,
            tracer=tracer,
            metrics=metrics,
        )
    counts = validate_counts(counts)
    n = int(counts.sum())
    if n < 2 * int(shards):
        raise ConfigurationError(
            f"n={n} is too small for {shards} shards (need >= 2 nodes per shard)"
        )
    plurality = plurality_color(counts)
    initial_state = dynamics.initial_state(counts)
    states = int(initial_state.size)
    seeds = shard_seed_sequences(rng, int(shards))
    kernel = DynamicsKernel(dynamics)
    if tracer is None:
        tracer = NULL_TRACER
    trace_round = tracer.enabled_for("round")
    if tracer.enabled_for("run"):
        tracer.record(
            "run", 0.0, protocol=f"dynamics:{dynamics.name}",
            n=n, k=int(counts.size), counts=[int(c) for c in counts],
        )
    trajectory: list[StepStats] = []
    epsilon_time: float | None = None
    rounds = 0
    converged = False
    slots = rng_states = harness = None
    try:
        slots = SharedArray.create((int(shards), states), np.int64)
        slots.array[:] = partition_counts(initial_state, int(shards))
        if resumable:
            from repro.shard.recovery import (
                PCG64_STATE_WORDS,
                CheckpointingController,
                initial_rng_states,
            )

            rng_states = SharedArray.create((int(shards), PCG64_STATE_WORDS), np.uint64)
            rng_states.array[:] = initial_rng_states(seeds)

            def build(resume: bool) -> ShardHarness:
                payloads = [
                    {
                        "slots_spec": slots.spec,
                        "kernel": kernel,
                        "seed_seq": seed,
                        "rng_state_spec": rng_states.spec,
                        "checkpoint_every": int(checkpoint_every),
                        "resume": resume,
                    }
                    for seed in seeds
                ]
                return ShardHarness(
                    count_worker, payloads, phases=2, start_method=start_method,
                    metrics=metrics,
                )

            harness = CheckpointingController(
                build,
                slots=slots,
                rng_states=rng_states,
                checkpoint_every=int(checkpoint_every),
                max_restarts=int(max_restarts),
                metrics=metrics,
            )
        else:
            payloads = [
                {"slots_spec": slots.spec, "kernel": kernel, "seed_seq": seed}
                for seed in seeds
            ]
            harness = ShardHarness(
                count_worker, payloads, phases=2, start_method=start_method,
                metrics=metrics,
            )
        while rounds < max_rounds:
            harness.step()
            rounds += 1
            state = slots.array.sum(axis=0)
            colors = dynamics.project_colors(state)
            if trace_round:
                tracer.record(
                    "round", float(rounds), counts=[int(c) for c in colors],
                    top_gen=0,
                )
            if record_trajectory:
                trajectory.append(
                    StepStats(
                        time=float(rounds),
                        top_generation=0,
                        top_generation_fraction=1.0,
                        plurality_fraction=float(colors.max()) / n,
                        bias=multiplicative_bias(colors) if colors.sum() else 1.0,
                    )
                )
            if epsilon is not None and epsilon_time is None:
                if colors[plurality] >= (1.0 - epsilon) * n:
                    epsilon_time = float(rounds)
            if dynamics.is_converged(state):
                converged = True
                break
        final = dynamics.project_colors(slots.array.sum(axis=0))
    finally:
        for resource in (harness, slots, rng_states):
            if resource is not None:
                resource.close()
    if tracer.enabled_for("end"):
        tracer.record(
            "end", float(rounds), converged=converged,
            counts=[int(c) for c in final], eps_time=epsilon_time,
        )
    if metrics is not None and metrics.enabled:
        # Mirror the unsharded run_dynamics epilogue so shard counts
        # agree on the protocol-level counters.
        metrics.counter(f"dynamics.runs.{dynamics.name}").inc()
        metrics.counter("dynamics.rounds").inc(rounds)
        if converged:
            metrics.counter("dynamics.converged_runs").inc()
    return RunResult(
        converged=converged,
        winner=int(np.argmax(final)),
        plurality_color=plurality,
        elapsed=float(rounds),
        final_color_counts=np.asarray(final, dtype=np.int64),
        epsilon_convergence_time=epsilon_time,
        trajectory=trajectory,
    )
