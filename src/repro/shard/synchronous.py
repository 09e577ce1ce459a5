"""Sharded simulators for Algorithm 1 (both synchronous engines).

Both simulators subclass the unsharded
:class:`~repro.core.synchronous._SynchronousBase`, so the entire run
loop — births, epsilon bookkeeping, trajectory, tracing, the
:class:`~repro.core.results.RunResult` contract — is literally the same
code; only :meth:`step` crosses the process boundary.

* :class:`ShardedAggregateSynchronousSim` — count-matrix slots, the
  generic count worker, distribution-identical to the unsharded engine
  (see :mod:`repro.shard.count_engine`).
* :class:`ShardedPerNodeSynchronousSim` — the full ``colors`` /
  ``generations`` arrays live in shared memory; each worker computes the
  update for its contiguous node slice while sampling contacts from the
  *whole* population (reads in phase one, slice writes in phase two).
  State layout and round (:func:`~repro.core.synchronous.pernode_round`:
  contact draws, update rule and ``(gen, col)`` tally, on the compiled
  or the numpy core) are the unsharded per-node engine's,
  so this is exactly the unsharded Markov kernel — per-node updates
  only read the previous round's state — and distribution-identical,
  just not bit-identical (per-shard substreams replace the single
  stream). Each worker writes its slice's tally into its row of a
  shared ``(shards, rows * k)`` block, which the controller sums
  instead of counting all ``n`` nodes.

Schedules are stateful (:class:`~repro.core.schedule.AdaptiveSchedule`
latches its decisions), so only the controller consults
``is_two_choices_step``; workers receive the decision through the
control word.

:func:`run_sharded_synchronous` is the front-end; at ``shards=1`` it
delegates to :func:`repro.core.synchronous.run_synchronous` without
consuming any extra randomness, keeping single-shard runs byte-identical
to the unsharded engines.
"""

from __future__ import annotations

import numpy as np

from repro.core import fastcore
from repro.core.results import RunResult, _top_generation
from repro.core.schedule import Schedule
from repro.core.synchronous import (
    _SynchronousBase,
    _mean_field_top_share,
    pernode_round,
    run_synchronous,
    state_dtype,
    state_tally,
)
from repro.engine.tracing import Tracer
from repro.errors import ConfigurationError
from repro.shard.count_engine import AggregateSyncKernel, count_harness
from repro.shard.partition import (
    check_shard_size, partition_counts, partition_nodes, shard_seed_sequences
)
from repro.shard.runtime import ShardHarness, ShardWorkerContext, SharedArray
from repro.workloads.opinions import counts_to_assignment

__all__ = [
    "ShardedAggregateSynchronousSim",
    "ShardedPerNodeSynchronousSim",
    "run_sharded_synchronous",
]


def _validate_shard_run(n: int, shards: int) -> int:
    shards = int(shards)
    if shards < 2:
        raise ConfigurationError(
            "sharded simulators need shards >= 2; shards=1 is the unsharded "
            "engine (run_sharded_synchronous routes it automatically)"
        )
    return check_shard_size(n, shards)


class _ShardedSynchronousBase(_SynchronousBase):
    """Run-loop reuse plus harness lifecycle shared by both engines."""

    _harness: ShardHarness | None = None

    def run(self, **kwargs) -> RunResult:
        try:
            return super().run(**kwargs)
        finally:
            self.close()

    def close(self) -> None:
        """Stop the workers and release shared memory (idempotent)."""
        if self._harness is not None:
            self._harness.close()
            self._harness = None
        for name in ("_slots", "_shared_colors", "_shared_generations", "_tally"):
            block = getattr(self, name, None)
            if block is not None:
                block.close()
                setattr(self, name, None)


class ShardedAggregateSynchronousSim(_ShardedSynchronousBase):
    """Multiprocess count-matrix simulator (distribution-exact sharding).

    Shared state: one ``(rows, k)`` int64 slot per shard; the initial
    counts are split by the deterministic
    :func:`~repro.shard.partition.partition_counts`.
    """

    def __init__(
        self,
        counts: np.ndarray,
        schedule: Schedule,
        rng: np.random.Generator,
        *,
        shards: int,
        promotion: str = "pair",
        tracer: Tracer | None = None,
        start_method: str | None = None,
        metrics=None,
    ):
        counts = self._setup(counts, schedule, rng, tracer)
        self.shards = _validate_shard_run(self.n, shards)
        if promotion not in ("pair", "single"):
            raise ConfigurationError(
                f"promotion must be 'pair' or 'single', got {promotion!r}"
            )
        try:
            slot_counts = partition_counts(counts, self.shards)
            self._slots = SharedArray.create((self.shards, self._rows, self.k), np.int64)
            self._slots.array[:, 0, :] = slot_counts
            self._harness = count_harness(
                self._slots, AggregateSyncKernel(self.n, promotion),
                shard_seed_sequences(rng, self.shards), start_method=start_method,
                metrics=metrics,
            )
        except BaseException:
            self.close()
            raise

    def generation_color_matrix(self) -> np.ndarray:
        return self._slots.array.sum(axis=0)

    def step(self) -> None:
        self.steps_done += 1
        two_choices_step = self.schedule.is_two_choices_step(
            self.steps_done,
            _mean_field_top_share(self.generation_color_matrix(), self.n),
        )
        self._harness.step(flag=1.0 if two_choices_step else 0.0)


def pernode_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    """Per-node shard round: update one node slice from full-state reads.

    :func:`~repro.core.synchronous.pernode_round`, the round the
    unsharded engine runs too, samples contacts from the *whole*
    population via the shared arrays (skipping only the sampler's own
    global index) and writes the slice's new state into buffers this
    worker allocates once, on the core the controller chose
    (``payload["core"]``). Every read of the shared state happens before
    the first phase barrier and every write after it, so each round sees
    exactly the previous round's global state: the unsharded Markov
    kernel. Besides its slice, the worker writes the slice's
    ``(gen, col)`` tally into its row of the shared tally, which the
    controller sums instead of counting all ``n`` nodes itself.
    """
    colors_block = SharedArray.attach(payload["colors_spec"])
    generations_block = SharedArray.attach(payload["generations_spec"])
    tally_block = SharedArray.attach(payload["tally_spec"])
    try:
        kernel = None
        if payload["core"] == "c":
            kernel = fastcore.load()
            if kernel is None:
                raise RuntimeError("the compiled per-node round did not load in a shard worker")
        colors = colors_block.array
        generations = generations_block.array
        start, stop = payload["range"]
        k = int(payload["k"])
        rng = np.random.Generator(np.random.PCG64(payload["seed_seq"]))
        shared_tally = tally_block.array[ctx.index]
        new_gens = np.empty(stop - start, generations.dtype)
        new_cols = np.empty(stop - start, colors.dtype)
        tally = np.empty_like(shared_tally)
        out = (new_gens, new_cols, tally)
        while True:
            ctx.wait()  # round start
            if ctx.stopped:
                break
            pernode_round(
                rng,
                generations,
                colors,
                bool(ctx.flag),  # the controller's two-choices decision
                out,
                k=k,
                start=start,
                kernel=kernel,
            )
            ctx.wait()  # everyone has read the old state; writes may begin
            generations[start:stop] = new_gens
            colors[start:stop] = new_cols
            shared_tally[:] = tally
            ctx.wait()  # round complete
    finally:
        colors_block.close()
        generations_block.close()
        tally_block.close()


class ShardedPerNodeSynchronousSim(_ShardedSynchronousBase):
    """Multiprocess per-node simulator over shared state arrays.

    The initial placement consumes ``rng`` exactly like the unsharded
    constructor (one uniform shuffle); the per-round sampling moves to
    the per-shard substreams. The shared ``colors``/``generations`` have
    the unsharded engine's :func:`~repro.core.synchronous.state_dtype`;
    a ``(shards, rows * k)`` tally holds each shard's ``(gen, col)``
    counts. ``core`` (``"c"`` or ``"python"``) names the path every
    shard's rounds take, as on the unsharded engine.
    """

    def __init__(
        self,
        counts: np.ndarray,
        schedule: Schedule,
        rng: np.random.Generator,
        *,
        shards: int,
        tracer: Tracer | None = None,
        start_method: str | None = None,
        metrics=None,
    ):
        counts = self._setup(counts, schedule, rng, tracer)
        self.shards = _validate_shard_run(self.n, shards)
        try:
            dtype = state_dtype(self._rows, self.k)
            self._shared_colors = SharedArray.create((self.n,), dtype)
            self._shared_generations = SharedArray.create((self.n,), dtype)
            self._tally = SharedArray.create(
                (self.shards, self._rows * self.k), np.int64
            )
            colors = self._shared_colors.array
            colors[:] = counts_to_assignment(counts, rng)
            generations = self._shared_generations.array
            ranges = partition_nodes(self.n, self.shards)
            for row, (start, stop) in zip(self._tally.array, ranges):
                row[:] = state_tally(
                    generations[start:stop], colors[start:stop], self.k, row.size
                )
            seeds = shard_seed_sequences(rng, self.shards)
            #: The core every shard's rounds run on ("c" or "python"),
            #: chosen here once, so a spawned worker cannot pick another.
            self.core = "python" if fastcore.load() is None else "c"
            payloads = [
                {
                    "colors_spec": self._shared_colors.spec,
                    "generations_spec": self._shared_generations.spec,
                    "tally_spec": self._tally.spec,
                    "range": node_range,
                    "k": self.k,
                    "seed_seq": seed,
                    "core": self.core,
                }
                for node_range, seed in zip(ranges, seeds)
            ]
            self._harness = ShardHarness(
                pernode_worker, payloads, phases=2, start_method=start_method,
                metrics=metrics,
            )
        except BaseException:
            self.close()
            raise

    def generation_color_matrix(self) -> np.ndarray:
        return self._tally.array.sum(axis=0).reshape(self._rows, self.k)

    def step(self) -> None:
        self.steps_done += 1
        _, top_fraction = _top_generation(self.generation_color_matrix(), self.n)
        two_choices_step = self.schedule.is_two_choices_step(self.steps_done, top_fraction)
        self._harness.step(flag=1.0 if two_choices_step else 0.0)


def run_sharded_synchronous(
    counts: np.ndarray,
    schedule: Schedule,
    rng: np.random.Generator,
    *,
    shards: int,
    engine: str = "aggregate",
    max_steps: int = 10_000,
    epsilon: float | None = None,
    record_trajectory: bool = False,
    tracer: Tracer | None = None,
    start_method: str | None = None,
    metrics=None,
) -> RunResult:
    """Sharded twin of :func:`repro.core.synchronous.run_synchronous`.

    ``shards=1`` delegates straight to the unsharded front-end — no
    worker processes, no extra randomness consumed — so single-shard
    results are byte-identical to the existing engines. The sharded
    engines support the default scenario only (complete graph, no
    round faults, no explicit placement); the sweep target validates
    those combinations upfront.

    A worker that dies fails the run with
    :class:`~repro.shard.runtime.ShardError`; under a supervised sweep
    the retry reruns it from the same substream, byte-identically.
    """
    if int(shards) == 1:
        return run_synchronous(
            counts,
            schedule,
            rng,
            engine=engine,
            max_steps=max_steps,
            epsilon=epsilon,
            record_trajectory=record_trajectory,
            tracer=tracer,
            metrics=metrics,
        )
    if engine == "aggregate":
        sim: _ShardedSynchronousBase = ShardedAggregateSynchronousSim(
            counts, schedule, rng, shards=shards, tracer=tracer,
            start_method=start_method, metrics=metrics,
        )
    elif engine == "pernode":
        sim = ShardedPerNodeSynchronousSim(
            counts, schedule, rng, shards=shards, tracer=tracer,
            start_method=start_method, metrics=metrics,
        )
    else:
        raise ConfigurationError(
            f"unknown engine {engine!r}; use 'aggregate' or 'pernode'"
        )
    result = sim.run(
        max_steps=max_steps, epsilon=epsilon, record_trajectory=record_trajectory
    )
    # Same protocol-level counters as the unsharded epilogue, so
    # shards=1 and shards>1 snapshots agree on everything that is a pure
    # function of the run; the shard.* instruments ride in via the
    # harness and worker sidecars.
    sim.publish_metrics(metrics, result)
    return result
