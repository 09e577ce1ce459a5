"""Deterministic node/count partitioning and per-shard RNG substreams.

Everything here is a pure function of its arguments — no RNG is
consumed, no global state touched — so the partition layout for a given
``(n, shards)`` pair is identical across runs, processes, and platforms.
That purity is what the equivalence harness leans on: the only
randomness in a sharded run flows through the per-shard
:class:`~numpy.random.SeedSequence` children derived once, up front, by
:func:`shard_seed_sequences`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "partition_nodes", "partition_counts", "shard_seed_sequences", "check_shard_size"
]


def _validate_shards(n: int, shards: int) -> tuple[int, int]:
    n = int(n)
    shards = int(shards)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if n < shards:
        raise ConfigurationError(
            f"cannot partition {n} nodes into {shards} non-empty shards"
        )
    return n, shards


def check_shard_size(n: int, shards: int) -> int:
    """``shards`` as an int, once ``n`` leaves every shard two nodes.

    The shard-size rule every sharded engine applies (the population
    scheduler draws pairs of distinct nodes inside each shard's slice).
    """
    shards = int(shards)
    if n < 2 * shards:
        raise ConfigurationError(
            f"n={n} is too small for {shards} shards (need >= 2 nodes per shard)"
        )
    return shards


def partition_nodes(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``shards`` contiguous ``[start, stop)`` ranges.

    The first ``n % shards`` shards receive one extra node, so shard
    sizes are balanced within ±1 and every node belongs to exactly one
    shard. Pure function of ``(n, shards)``.
    """
    n, shards = _validate_shards(n, shards)
    base, extra = divmod(n, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def partition_counts(counts: np.ndarray, shards: int) -> np.ndarray:
    """Split a count array into per-shard counts summing to the original.

    Conceptually the nodes are laid out in category order (all of
    category 0 first, then category 1, …) and cut at the
    :func:`partition_nodes` boundaries; each shard's counts are the
    category populations of its interval. The result has shape
    ``(shards, *counts.shape)``, every shard's total matches its
    :func:`partition_nodes` size, and columns sum to the input exactly.
    Pure function — anonymous engines only see counts, so any fixed
    deterministic split realizes the same process law.
    """
    counts = np.asarray(counts, dtype=np.int64)
    flat = counts.ravel()
    if flat.size == 0:
        raise ConfigurationError("cannot partition an empty count array")
    if (flat < 0).any():
        raise ConfigurationError("counts must be non-negative")
    edges = np.concatenate(([0], np.cumsum(flat)))
    n = int(edges[-1])
    ranges = partition_nodes(n, shards)
    out = np.empty((len(ranges), flat.size), dtype=np.int64)
    for index, (start, stop) in enumerate(ranges):
        lo = np.clip(edges[:-1], start, stop)
        hi = np.clip(edges[1:], start, stop)
        out[index] = hi - lo
    return out.reshape((len(ranges),) + counts.shape)


def shard_seed_sequences(
    rng: np.random.Generator, shards: int
) -> list[np.random.SeedSequence]:
    """Derive one child :class:`~numpy.random.SeedSequence` per shard.

    The children come from ``SeedSequence.spawn`` on the generator's own
    seed sequence — the same derivation tree the registry uses — so they
    are deterministic for a given registry stream, statistically
    independent of each other and of the parent stream, and picklable
    (they cross the process boundary in the worker payload). Spawning
    does **not** advance the generator's bit stream: the controller can
    keep drawing from ``rng`` afterwards exactly as the unsharded engine
    would.

    Call this once per run — ``spawn`` increments the parent's child
    counter, so a second call yields a *different* (still deterministic)
    batch.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ConfigurationError(
            "sharding requires a generator built from a SeedSequence "
            "(every RngRegistry stream qualifies)"
        )
    return list(seed_seq.spawn(int(shards)))
