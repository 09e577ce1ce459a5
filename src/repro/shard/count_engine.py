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
:func:`count_harness` builds the harness both count engines step.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import OpinionDynamics, _multinomial_round
from repro.core.synchronous import aggregate_round
from repro.shard.runtime import ShardHarness, ShardWorkerContext, SharedArray

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
    """
    slots = SharedArray.attach(payload["slots_spec"])
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
            ctx.wait()  # everyone has written; controller may inspect
    finally:
        slots.close()


def count_harness(
    slots: SharedArray, kernel, seeds, *, start_method: str | None = None,
    metrics=None,
) -> ShardHarness:
    """One :func:`count_worker` per seed over ``slots`` (still the caller's)."""
    payloads = [
        {"slots_spec": slots.spec, "kernel": kernel, "seed_seq": seed}
        for seed in seeds
    ]
    return ShardHarness(
        count_worker, payloads, phases=2, start_method=start_method,
        metrics=metrics,
    )
