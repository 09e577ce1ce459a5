"""Single-shard identity and cross-invocation reproducibility.

The hard contract of the sharded front-ends is that ``shards=1`` is
**byte-identical** to the unsharded engines: the delegation happens
before any randomness is consumed and before any process machinery is
touched. That identity is pinned here three ways — directly against
the unsharded front-ends, against the committed golden trajectories
from the round-seam change, and through the sweep-target layer.

Bit-reproducibility at ``shards > 1`` (same seed, same shard count →
identical results, for fork *and* spawn) is pinned alongside, because
it is the precondition for the statistical equivalence suite in
``test_differential.py`` meaning anything. The sharded per-node engine
is also pinned against ``golden_sharded_pernode.json``, so a speed
change to its round cannot move a single trajectory unnoticed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.base import run_dynamics
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.population import PairwiseScheduler, ThreeStateMajority
from repro.core.schedule import AlwaysTwoChoices, FixedSchedule
from repro.core.synchronous import run_synchronous
from repro.engine.rng import RngRegistry
from repro.shard import (
    run_sharded_dynamics,
    run_sharded_population,
    run_sharded_synchronous,
)
from repro.shard.synchronous import ShardedPerNodeSynchronousSim
from repro.workloads import biased_counts

GOLDEN_ROUND = json.loads(
    (
        Path(__file__).parent.parent / "scenarios" / "golden_round_defaults.json"
    ).read_text()
)

GOLDEN_SHARDED_PERNODE = json.loads(
    (Path(__file__).parent / "golden_sharded_pernode.json").read_text()
)


def _sync_fingerprint(result):
    return [
        bool(result.converged),
        int(result.winner),
        repr(result.elapsed),
        result.final_color_counts.tolist(),
        [(b.generation, b.time, b.fraction, b.bias) for b in result.births],
    ]


class TestSingleShardIdentity:
    @pytest.mark.parametrize("engine", ["aggregate", "pernode"])
    def test_synchronous_matches_unsharded(self, engine):
        counts = biased_counts(600, 4, 2.0)
        schedule = FixedSchedule(n=600, k=4, alpha0=2.0)
        baseline = run_synchronous(
            counts, schedule, RngRegistry(9).stream("sync"), engine=engine
        )
        sharded = run_sharded_synchronous(
            counts, schedule, RngRegistry(9).stream("sync"), shards=1, engine=engine
        )
        assert _sync_fingerprint(sharded) == _sync_fingerprint(baseline)

    def test_run_synchronous_shards_kwarg_is_inert_at_one(self):
        counts = biased_counts(500, 3, 2.0)
        schedule = FixedSchedule(n=500, k=3, alpha0=2.0)
        baseline = run_synchronous(counts, schedule, RngRegistry(5).stream("s"))
        via_kwarg = run_synchronous(
            counts, schedule, RngRegistry(5).stream("s"), shards=1
        )
        assert _sync_fingerprint(via_kwarg) == _sync_fingerprint(baseline)

    def test_dynamics_matches_unsharded(self):
        counts = biased_counts(800, 3, 1.5)
        baseline = run_dynamics(
            ThreeMajority(), counts, RngRegistry(4).stream("d")
        )
        sharded = run_sharded_dynamics(
            ThreeMajority(), counts, RngRegistry(4).stream("d"), shards=1
        )
        assert repr(baseline.elapsed) == repr(sharded.elapsed)
        assert baseline.final_color_counts.tolist() == sharded.final_color_counts.tolist()
        assert baseline.winner == sharded.winner

    def test_population_matches_unsharded(self):
        counts = biased_counts(400, 2, 2.0)
        baseline = PairwiseScheduler(ThreeStateMajority()).run(
            counts, RngRegistry(8).stream("p")
        )
        sharded = run_sharded_population(
            ThreeStateMajority(), counts, RngRegistry(8).stream("p"), shards=1
        )
        assert baseline.interactions == sharded.interactions
        assert baseline.final_state_counts.tolist() == sharded.final_state_counts.tolist()
        assert baseline.winner == sharded.winner


class TestGoldenIdentityAtOneShard:
    """``shards=1`` reproduces the committed golden trajectories."""

    def test_aggregate_synchronous_golden(self):
        result = run_synchronous(
            biased_counts(600, 4, 2.0),
            FixedSchedule(n=600, k=4, alpha0=2.0),
            RngRegistry(42).stream("agg"),
            max_steps=4000,
            shards=1,
        )
        assert [
            bool(result.converged),
            int(result.winner),
            repr(result.elapsed),
            result.final_color_counts.tolist(),
        ] == GOLDEN_ROUND["aggregate_sync"]

    def test_population_three_state_golden(self):
        result = PairwiseScheduler(ThreeStateMajority()).run(
            biased_counts(400, 2, 2.0), RngRegistry(42).stream("p3"), shards=1
        )
        assert [
            bool(result.converged),
            int(result.winner),
            int(result.interactions),
            result.final_state_counts.tolist(),
        ] == GOLDEN_ROUND["population_three_state"]


class TestShardedReproducibility:
    @pytest.mark.parametrize("engine", ["aggregate", "pernode"])
    def test_synchronous_same_seed_same_result(self, engine):
        counts = biased_counts(600, 3, 2.0)
        schedule = FixedSchedule(n=600, k=3, alpha0=2.0)
        runs = [
            run_sharded_synchronous(
                counts, schedule, RngRegistry(17).stream("rep"), shards=2, engine=engine
            )
            for _ in range(2)
        ]
        assert _sync_fingerprint(runs[0]) == _sync_fingerprint(runs[1])

    def test_population_same_seed_same_result(self):
        counts = biased_counts(600, 2, 2.0)
        runs = [
            run_sharded_population(
                ThreeStateMajority(), counts, RngRegistry(3).stream("rep"), shards=2
            )
            for _ in range(2)
        ]
        assert runs[0].interactions == runs[1].interactions
        assert (
            runs[0].final_state_counts.tolist() == runs[1].final_state_counts.tolist()
        )

    def test_fork_and_spawn_agree(self):
        counts = biased_counts(400, 3, 2.0)
        results = [
            run_sharded_dynamics(
                ThreeMajority(),
                counts,
                RngRegistry(11).stream("sm"),
                shards=2,
                start_method=method,
            )
            for method in ("fork", "spawn")
        ]
        assert repr(results[0].elapsed) == repr(results[1].elapsed)
        assert (
            results[0].final_color_counts.tolist()
            == results[1].final_color_counts.tolist()
        )


#: name -> (n, k, alpha, schedule factory, shards, seed, max_steps).
#: The fixed and always-two-choices schedules drive both branches of
#: the worker's two-choices flag; ``wide_int64`` has more generation
#: rows than ``int8`` holds, so it runs on ``int64`` shared state.
SHARDED_PERNODE_CASES = {
    "fixed_shards2": (
        600, 4, 2.0, lambda: FixedSchedule(n=600, k=4, alpha0=2.0), 2, 21, 4000
    ),
    "fixed_shards3": (
        900, 3, 1.5, lambda: FixedSchedule(n=900, k=3, alpha0=1.5), 3, 22, 4000
    ),
    "always_shards2": (600, 4, 2.0, lambda: AlwaysTwoChoices(), 2, 23, 300),
    "always_shards3": (900, 3, 1.5, lambda: AlwaysTwoChoices(), 3, 24, 300),
    "wide_int64": (
        400, 3, 2.0, lambda: AlwaysTwoChoices(max_generation=130), 2, 25, 300
    ),
}


def sharded_pernode_record(name: str) -> list:
    """The pinned record of one sharded per-node case (floats as repr)."""
    n, k, alpha, schedule, shards, seed, max_steps = SHARDED_PERNODE_CASES[name]
    result = run_sharded_synchronous(
        biased_counts(n, k, alpha),
        schedule(),
        RngRegistry(seed).stream("pernode-golden"),
        shards=shards,
        engine="pernode",
        max_steps=max_steps,
        epsilon=0.05,
        record_trajectory=True,
    )
    return [
        bool(result.converged),
        int(result.winner),
        repr(result.elapsed),
        result.final_color_counts.tolist(),
        repr(result.epsilon_convergence_time),
        [
            [b.generation, repr(b.time), repr(b.fraction), repr(b.bias),
             repr(b.collision_probability)]
            for b in result.births
        ],
        [
            [repr(s.time), s.top_generation, repr(s.top_generation_fraction),
             repr(s.plurality_fraction), repr(s.bias)]
            for s in result.trajectory
        ],
    ]


class TestShardedPerNodeGolden:
    """``shards > 1`` per-node runs reproduce their committed records."""

    @pytest.mark.parametrize("name", sorted(SHARDED_PERNODE_CASES))
    def test_matches_golden(self, name):
        assert sharded_pernode_record(name) == GOLDEN_SHARDED_PERNODE[name]


class TestShardedPerNodeState:
    """The narrow shared state and the per-shard tallies stay consistent.

    Five shards outnumber the cores of the usual test host, so workers
    are preempted mid-round; a lost or torn tally write would show.
    """

    @pytest.mark.parametrize(
        "schedule, dtype",
        [
            (FixedSchedule(n=600, k=4, alpha0=2.0), np.int8),
            (AlwaysTwoChoices(max_generation=130), np.int64),
        ],
    )
    def test_tally_matches_shared_state(self, schedule, dtype):
        sim = ShardedPerNodeSynchronousSim(
            biased_counts(600, 4, 2.0), schedule, RngRegistry(3).stream("tally"),
            shards=5,
        )
        try:
            generations = sim._shared_generations.array
            colors = sim._shared_colors.array
            assert generations.dtype == dtype and colors.dtype == dtype
            for _ in range(6):
                keys = generations.astype(np.intp) * sim.k + colors
                expected = np.bincount(keys, minlength=sim._rows * sim.k)
                matrix = sim.generation_color_matrix()
                assert matrix.ravel().tolist() == expected.tolist()
                sim.step()
        finally:
            sim.close()
