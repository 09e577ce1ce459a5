"""Sharded count engines — multiprocess synchronous & population runs.

The synchronous engines and the population scheduler are count-matrix
processes: per-round behavior depends on the *global* state only through
fractions, so the state partitions cleanly across worker processes. This
package shards them behind the simplest correct design — one controller,
``shards`` workers, state in :mod:`multiprocessing.shared_memory`, and a
barrier per round (the tick-barrier controller pattern):

* :mod:`repro.shard.partition` — the pure node/count partitioner, the
  per-shard RNG substream derivation (``SeedSequence.spawn`` children of
  the run's registry stream, so a given ``(seed, shards)`` pair is
  bit-reproducible) and the one "two nodes per shard" rule.
* :mod:`repro.shard.runtime` — :class:`~repro.shard.runtime.SharedArray`
  (named shared-memory numpy blocks) and
  :class:`~repro.shard.runtime.ShardHarness` (worker lifecycle, the
  per-round barrier protocol, worker-crash propagation).
* :mod:`repro.shard.count_engine` — the generic count-matrix worker,
  the kernels that shard the aggregate synchronous engine and the
  anonymous opinion dynamics exactly (same law: summing independent
  multinomials with shared probabilities is the global multinomial),
  and the one builder of its harness.
* :mod:`repro.shard.synchronous` — sharded front-ends for both
  synchronous engines (:func:`run_sharded_synchronous`); they run the
  unsharded engines' round loop with a cross-process ``step``.
* :mod:`repro.shard.dynamics` — :func:`run_sharded_dynamics` for the
  baseline opinion dynamics: a count-engine stepper driven by
  :func:`~repro.baselines.base.run_dynamics`' own round loop.
* :mod:`repro.shard.population` — :func:`run_sharded_population`:
  block-granular intra-shard interactions plus a small controller-run
  cross-shard exchange (the one *approximate* sharding in the package;
  see the module docstring for the law and the equivalence gate).

``shards=1`` never spawns processes or consumes extra randomness — every
front-end delegates straight to the unsharded engine, so single-shard
runs stay byte-identical to the existing goldens. A run whose worker
dies raises :class:`~repro.shard.runtime.ShardError`; the supervised
sweep's retry is the recovery path, and reruns it byte-identically from
the same substream. The event engine is deliberately not sharded here
(see ``docs/architecture.md``).
"""

from repro.shard.dynamics import run_sharded_dynamics
from repro.shard.partition import partition_counts, partition_nodes, shard_seed_sequences
from repro.shard.population import run_sharded_population
from repro.shard.runtime import ShardError, SharedArray, ShardHarness
from repro.shard.synchronous import (
    ShardedAggregateSynchronousSim,
    ShardedPerNodeSynchronousSim,
    run_sharded_synchronous,
)

__all__ = [
    "partition_nodes",
    "partition_counts",
    "shard_seed_sequences",
    "SharedArray",
    "ShardHarness",
    "ShardError",
    "run_sharded_synchronous",
    "ShardedAggregateSynchronousSim",
    "ShardedPerNodeSynchronousSim",
    "run_sharded_dynamics",
    "run_sharded_population",
]
