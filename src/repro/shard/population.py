"""Sharded population-protocol scheduler.

The exact sequential law — one uniform ordered pair of distinct nodes
per interaction — serializes every interaction and cannot shard
exactly. The sharded scheduler runs the standard relaxation:

* each round, every shard performs ``block`` interactions between
  uniform ordered pairs *within its own node slice* (the unsharded
  inner loop verbatim, shift trick included), concurrently;
* between rounds the controller performs ``exchange`` interactions
  between uniform ordered pairs drawn from the *whole* population on
  the shared state array (workers are parked at the barrier, so the
  controller is the only writer), keeping opinions mixing across the
  cut.

Every interaction — intra-shard and exchange — advances the interaction
clock, so a round costs ``shards * block + exchange`` interactions and
*parallel time* keeps its standard meaning. The pair law differs from
uniform-over-all-pairs by the missing intra-round cross-shard pairs
(an O(1/shards) rate perturbation with this ``exchange``), which
is why the equivalence harness gates this engine on confidence-interval
overlap of convergence-time distributions rather than exact identity —
unlike the count engines, whose sharding is distribution-exact.

``shards=1`` delegates to
:class:`~repro.baselines.population.PairwiseScheduler` untouched
(byte-identical, no extra randomness).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.population import (
    PairwiseScheduler,
    PopulationProtocol,
    PopulationResult,
)
from repro.engine.tracing import NULL_TRACER
from repro.shard.partition import check_shard_size, partition_nodes, shard_seed_sequences
from repro.shard.runtime import ShardHarness, ShardWorkerContext, SharedArray
from repro.workloads.bias import validate_counts

__all__ = ["run_sharded_population", "population_worker"]


def population_worker(ctx: ShardWorkerContext, payload: dict) -> None:
    """One shard's round loop: ``ctx.flag`` intra-slice interactions.

    The slice state is re-read from shared memory each round (the
    controller's exchange pass may have rewritten any node between
    rounds) into a plain list, driven with the same precomputed
    transition table and shift-trick pair sampling as the unsharded
    scheduler, and written back before the end barrier.
    """
    states_block = SharedArray.attach(payload["states_spec"])
    counts_block = SharedArray.attach(payload["counts_spec"])
    try:
        start, stop = payload["range"]
        size = stop - start
        rng = np.random.Generator(np.random.PCG64(payload["seed_seq"]))
        protocol: PopulationProtocol = payload["protocol"]
        num_states = int(protocol.num_states)
        trans = [
            [protocol.delta(a, b) for b in range(num_states)] for a in range(num_states)
        ]
        while True:
            ctx.wait()  # round start
            if ctx.stopped:
                break
            block = int(ctx.flag)
            local_slice = states_block.array[start:stop]
            local = local_slice.tolist()
            counts_list = np.bincount(local_slice, minlength=num_states).tolist()
            initiators = rng.integers(size, size=block).tolist()
            responders = rng.integers(size - 1, size=block).tolist()
            for index in range(block):
                u = initiators[index]
                v = responders[index]
                if v >= u:
                    v += 1
                a = local[u]
                b = local[v]
                new_a, new_b = trans[a][b]
                if new_a != a or new_b != b:
                    local[u] = new_a
                    local[v] = new_b
                    counts_list[a] -= 1
                    counts_list[b] -= 1
                    counts_list[new_a] += 1
                    counts_list[new_b] += 1
            states_block.array[start:stop] = local
            counts_block.array[ctx.index] = counts_list
            ctx.wait()  # slice + counts published; controller takes over
    finally:
        states_block.close()
        counts_block.close()


def run_sharded_population(
    protocol: PopulationProtocol,
    counts: np.ndarray,
    rng: np.random.Generator,
    *,
    shards: int,
    max_interactions: int | None = None,
    tracer=None,
    start_method: str | None = None,
    metrics=None,
) -> PopulationResult:
    """Run ``protocol`` across ``shards`` workers; see the module docstring.

    Each round every shard runs ``block = max(256, n // (4 * shards))``
    interactions, then the controller runs ``exchange = max(128,
    shards * block // 4)`` cross-shard interactions.
    """
    shards = int(shards)
    if shards == 1:
        return PairwiseScheduler(protocol).run(
            counts, rng, max_interactions=max_interactions, tracer=tracer,
            metrics=metrics,
        )
    state = protocol.initial_state(validate_counts(counts))
    n = int(state.sum())
    check_shard_size(n, shards)
    if max_interactions is None:
        max_interactions = 500 * n * max(8, int(np.log2(n)) ** 2)
    block = max(256, n // (4 * shards))
    # Calibrated against the unsharded scheduler: below ~an eighth of a
    # round's intra-shard budget, convergence-time distributions drift
    # outside the 95% CI-overlap gate at n=2000 (the true pair law makes
    # 1 - 1/shards of pairs cross-shard; the exchange pass only needs to
    # keep global counts mixing, not match that rate).
    exchange = max(128, shards * block // 4)
    num_states = int(state.size)
    trans = [
        [protocol.delta(a, b) for b in range(num_states)] for a in range(num_states)
    ]
    # Uniform placement: the law's projection of the anonymous state
    # onto node slices (each shard's initial mix is hypergeometric, as
    # a uniform cut of the population would be).
    node_state = np.repeat(np.arange(num_states, dtype=np.int64), state)
    rng.shuffle(node_state)
    ranges = partition_nodes(n, shards)
    seeds = shard_seed_sequences(rng, shards)
    if tracer is None:
        tracer = NULL_TRACER
    trace_round = tracer.enabled_for("round")
    if tracer.enabled_for("run"):
        tracer.record(
            "run", 0.0, protocol=f"population:{protocol.name}",
            n=n, k=num_states, counts=[int(c) for c in state],
        )
    interactions = 0
    exchanged = 0
    counts_now = np.asarray(state, dtype=np.int64).copy()
    converged = protocol.is_converged(counts_now)
    states_block = counts_block = harness = None
    try:
        states_block = SharedArray.create((n,), np.int64)
        states_block.array[:] = node_state
        counts_block = SharedArray.create((shards, num_states), np.int64)
        for index, (start, stop) in enumerate(ranges):
            counts_block.array[index] = np.bincount(
                node_state[start:stop], minlength=num_states
            )
        payloads = [
            {
                "states_spec": states_block.spec,
                "counts_spec": counts_block.spec,
                "range": node_range,
                "seed_seq": seed,
                "protocol": protocol,
            }
            for node_range, seed in zip(ranges, seeds)
        ]
        harness = ShardHarness(
            population_worker, payloads, phases=1, start_method=start_method,
            metrics=metrics,
        )
        while not converged and interactions < max_interactions:
            remaining = max_interactions - interactions
            this_block = min(block, max(1, remaining // shards))
            harness.step(flag=float(this_block))
            interactions += this_block * shards
            counts_now = counts_block.array.sum(axis=0)
            # Cross-shard exchange: the controller is the only process
            # touching shared state between barriers.
            shared_states = states_block.array
            budget = min(exchange, max(0, max_interactions - interactions))
            for _ in range(budget):
                u = int(rng.integers(n))
                v = int(rng.integers(n - 1))
                if v >= u:
                    v += 1
                a = int(shared_states[u])
                b = int(shared_states[v])
                new_a, new_b = trans[a][b]
                if new_a != a or new_b != b:
                    shared_states[u] = new_a
                    shared_states[v] = new_b
                    counts_now[a] -= 1
                    counts_now[b] -= 1
                    counts_now[new_a] += 1
                    counts_now[new_b] += 1
            interactions += budget
            exchanged += budget
            converged = protocol.is_converged(counts_now)
            if trace_round:
                tracer.record(
                    "round", interactions / n, counts=[int(c) for c in counts_now],
                    top_gen=0, interactions=interactions,
                )
    finally:
        for resource in (harness, states_block, counts_block):
            if resource is not None:
                resource.close()
    winner = None
    if converged:
        live = np.nonzero(counts_now)[0]
        winner = protocol.output_color(int(live[0]))
    if tracer.enabled_for("end"):
        tracer.record(
            "end", interactions / n, converged=converged,
            counts=[int(c) for c in counts_now], eps_time=None,
            interactions=interactions,
        )
    if metrics is not None and metrics.enabled:
        metrics.counter(f"population.runs.{protocol.name}").inc()
        metrics.counter("population.interactions").inc(interactions)
        if converged:
            metrics.counter("population.converged_runs").inc()
        # Cross-shard exchange volume: the controller-run interactions
        # that stitch the shard slices back into one population.
        metrics.counter("shard.exchange_values").inc(exchanged)
    return PopulationResult(
        converged=converged,
        winner=winner,
        interactions=interactions,
        n=n,
        final_state_counts=np.asarray(counts_now, dtype=np.int64),
    )
