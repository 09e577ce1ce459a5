"""The generic sharded count-matrix worker and its per-engine kernels.

Both the aggregate synchronous engine and the anonymous opinion
dynamics evolve a count array where one round is "every group draws a
multinomial whose probabilities depend only on the *global* counts".
That shape shards exactly: shared memory holds one count slot per shard
(``(shards, *state_shape)``), each round every worker

1. sums the slots into the global state (read phase, behind the first
   phase barrier so no writer is active),
2. advances *its own* counts with probabilities built from the global
   state, drawing from its private substream, and writes its slot back
   (write phase, behind the second barrier).

Summing independent multinomials with identical probabilities is the
multinomial of the summed counts, so the sharded round has exactly the
unsharded law — the statistical-equivalence tests on these engines are
a check, not a tolerance band.

Kernels are small picklable strategy objects (they ride the worker
payload through ``fork``/``spawn``): :class:`AggregateSyncKernel` wraps
:func:`repro.core.synchronous.aggregate_round`,
:class:`DynamicsKernel` wraps the baselines' multinomial round.
:func:`count_harness` builds the harness both count engines step —
plain, or wrapped in the ``resumable=`` checkpoint controller.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import OpinionDynamics, _multinomial_round
from repro.core.synchronous import aggregate_round
import repro.shard.recovery as recovery
from repro.shard.runtime import ROUND, ShardHarness, ShardWorkerContext, SharedArray

__all__ = ["AggregateSyncKernel", "DynamicsKernel", "count_worker", "count_harness"]


class AggregateSyncKernel:
    """Per-shard round of the aggregate synchronous engine.

    ``ctx.flag`` carries the controller's two-choices decision for the
    round (the schedule is stateful, so only the controller may consult
    it).
    """

    def __init__(self, n: int, promotion: str):
        self.n = int(n)
        self.promotion = promotion

    def advance(
        self,
        global_state: np.ndarray,
        local_state: np.ndarray,
        rng: np.random.Generator,
        flag: float,
    ) -> np.ndarray:
        return aggregate_round(
            global_state,
            local_state,
            self.n,
            rng,
            two_choices_step=bool(flag),
            promotion=self.promotion,
        )


class DynamicsKernel:
    """Per-shard round of an anonymous opinion dynamic."""

    def __init__(self, dynamics: OpinionDynamics):
        self.dynamics = dynamics

    def advance(
        self,
        global_state: np.ndarray,
        local_state: np.ndarray,
        rng: np.random.Generator,
        flag: float,
    ) -> np.ndarray:
        return _multinomial_round(
            self.dynamics, local_state, rng, probabilities_state=global_state
        )


def count_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    """Round loop every count-engine shard runs (module-level: spawnable).

    Payload keys: ``slots_spec`` (shared ``(shards, *state)`` array),
    ``kernel`` (an object with ``advance``), ``seed_seq`` (this shard's
    :class:`~numpy.random.SeedSequence`).

    Recovery seam (all optional; absent keys leave the hot loop
    byte-identical to the non-resumable build): ``rng_state_spec`` names
    a shared ``(shards, PCG64_STATE_WORDS)`` uint64 array; on rounds
    divisible by ``checkpoint_every`` the worker writes its packed
    generator state there right after its count slot (inside the same
    write phase, so the controller's post-round snapshot sees a
    consistent pair). With ``resume`` set the generator is rebuilt from
    the shared state row instead of ``seed_seq`` — the restart
    continues the original substream exactly where the checkpoint left
    it (see :mod:`repro.shard.recovery` for the determinism contract).
    """
    slots = SharedArray.attach(payload["slots_spec"])
    rng_states = None
    checkpoint_every = int(payload.get("checkpoint_every") or 0)
    if payload.get("rng_state_spec") is not None:
        rng_states = SharedArray.attach(payload["rng_state_spec"])
    if payload.get("resume"):
        rng = recovery.restored_generator(rng_states.array[ctx.index])
    else:
        rng = np.random.Generator(np.random.PCG64(payload["seed_seq"]))
    kernel = payload["kernel"]
    try:
        local = slots.array[ctx.index].copy()
        while True:
            ctx.wait()  # round start (controller published control words)
            if ctx.stopped:
                break
            global_state = slots.array.sum(axis=0)
            flag = ctx.flag
            ctx.wait()  # everyone has read; writes may begin
            total_before = int(local.sum())
            local = kernel.advance(global_state, local, rng, flag)
            assert int(local.sum()) == total_before, "shard node conservation violated"
            slots.array[ctx.index] = local
            if (
                rng_states is not None
                and checkpoint_every
                and int(ctx.control[ROUND]) % checkpoint_every == 0
            ):
                rng_states.array[ctx.index] = recovery.pack_pcg64_state(
                    rng.bit_generator.state
                )
            ctx.wait()  # everyone has written; controller may inspect
    finally:
        slots.close()
        if rng_states is not None:
            rng_states.close()


def count_harness(
    slots: SharedArray, kernel, seeds, *, start_method: str | None = None,
    metrics=None, resumable: bool = False, checkpoint_every: int = 100,
    max_restarts: int = 2,
):
    """One :func:`count_worker` per seed over ``slots`` (still the caller's).

    A bare :class:`~repro.shard.runtime.ShardHarness`, or with
    ``resumable=True`` a :class:`~repro.shard.recovery.CheckpointingController`
    that owns the shared generator-state rows.
    """

    def build(**seam) -> ShardHarness:
        payloads = [
            {"slots_spec": slots.spec, "kernel": kernel, "seed_seq": seed, **seam}
            for seed in seeds
        ]
        return ShardHarness(
            count_worker, payloads, phases=2, start_method=start_method,
            metrics=metrics,
        )

    if not resumable:
        return build()
    every = int(checkpoint_every)
    rng_states = SharedArray.create((len(seeds), recovery.PCG64_STATE_WORDS), np.uint64)
    try:
        rng_states.array[:] = recovery.initial_rng_states(seeds)
        return recovery.CheckpointingController(
            lambda resume: build(
                rng_state_spec=rng_states.spec, checkpoint_every=every, resume=resume
            ),
            slots=slots, rng_states=rng_states, checkpoint_every=every,
            max_restarts=int(max_restarts), metrics=metrics,
        )
    except BaseException:
        rng_states.close()
        raise
