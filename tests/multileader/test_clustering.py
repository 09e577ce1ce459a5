"""Tests for the clustering phase (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.multileader.clustering import Clustering, ClusteringSim, ideal_clustering
from repro.multileader.params import MultiLeaderParams


class TestIdealClustering:
    def test_partition_covers_everyone(self):
        clustering = ideal_clustering(100, 10)
        assert clustering.clustered_fraction == 1.0
        assert clustering.active_fraction == 1.0
        assert len(clustering.active_leaders) == 10

    def test_runt_cluster_folded(self):
        clustering = ideal_clustering(105, 10)
        sizes = clustering.cluster_sizes()
        assert sum(sizes.values()) == 105
        assert min(sizes.values()) >= 10

    def test_leaders_point_to_themselves(self):
        clustering = ideal_clustering(60, 15)
        for leader in clustering.leaders:
            assert clustering.leader_of[leader] == leader

    def test_cluster_size_exceeding_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ideal_clustering(5, 10)

    def test_switch_spread_zero_for_ideal(self):
        assert ideal_clustering(100, 10).switch_spread == 0.0


class TestBookkeeping:
    """The vectorized cluster bookkeeping against the per-leader formulas."""

    @staticmethod
    def random_clustering(rng: np.random.Generator) -> Clustering:
        n = int(rng.integers(2, 400))
        leaders = np.unique(rng.integers(0, n, size=int(rng.integers(1, n + 1))))
        leader_of = rng.choice(leaders, size=n)
        leader_of[rng.random(n) < rng.random()] = -1  # unclustered nodes
        leader_of[leaders] = leaders
        active = [int(v) for v in leaders if rng.random() < 0.6]
        return Clustering(leader_of=leader_of.astype(np.int64), active_leaders=active)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_leader_formulas(self, seed):
        clustering = self.random_clustering(np.random.default_rng(seed))
        leader_of = clustering.leader_of
        leaders = [int(v) for v in np.nonzero(leader_of == np.arange(clustering.n))[0]]
        sizes = {leader: int(np.count_nonzero(leader_of == leader)) for leader in leaders}
        active = set(clustering.active_leaders)
        in_active = len([1 for leader in leader_of.tolist() if leader in active])
        assert clustering.leaders == leaders
        assert list(clustering.cluster_sizes().items()) == list(sizes.items())
        assert clustering.active_fraction == in_active / clustering.n

    def test_no_active_leaders(self):
        clustering = ideal_clustering(50, 10)
        clustering.active_leaders = []
        assert clustering.active_fraction == 0.0


class TestClusteringSim:
    @pytest.fixture()
    def params(self) -> MultiLeaderParams:
        return MultiLeaderParams(n=800, k=2, alpha0=2.0)

    @pytest.mark.parametrize(
        "run_kwargs",
        [
            dict(max_time=-1.0),
            dict(sample_every=0.0),
            dict(sample_every=-1.0),
            dict(sample_every=float("nan")),
        ],
        ids=["negative-max-time", "sample-every-0", "negative-sample-every", "nan-sample-every"],
    )
    def test_bad_run_inputs_rejected_before_running(self, params, rngs, run_kwargs):
        sim = ClusteringSim(params, rngs.stream("bad"))
        with pytest.raises(ConfigurationError):
            sim.run(**run_kwargs)
        assert sim.sim.events_executed == 0

    def test_produces_valid_clustering(self, params, rngs):
        clustering = ClusteringSim(params, rngs.stream("c")).run(max_time=300.0)
        assert isinstance(clustering, Clustering)
        assert clustering.n == 800
        # Every assignment points at a real leader.
        leaders = set(clustering.leaders)
        for node in range(800):
            target = int(clustering.leader_of[node])
            assert target == -1 or target in leaders

    def test_cluster_sizes_capped(self, params, rngs):
        clustering = ClusteringSim(params, rngs.stream("c2")).run(max_time=300.0)
        sizes = clustering.cluster_sizes()
        assert max(sizes.values()) <= params.max_cluster_size

    def test_active_clusters_meet_minimum(self, params, rngs):
        clustering = ClusteringSim(params, rngs.stream("c3")).run(max_time=300.0)
        sizes = clustering.cluster_sizes()
        for leader in clustering.active_leaders:
            assert sizes[leader] >= params.min_active_size

    def test_most_nodes_clustered(self, params, rngs):
        clustering = ClusteringSim(params, rngs.stream("c4")).run(max_time=300.0)
        assert clustering.clustered_fraction > 0.75
        assert clustering.active_fraction > 0.6

    def test_switch_times_only_for_active(self, params, rngs):
        clustering = ClusteringSim(params, rngs.stream("c5")).run(max_time=300.0)
        assert set(clustering.switch_times) == set(clustering.active_leaders)
        assert clustering.switch_spread >= 0.0

    def test_trajectory_monotone(self, params, rngs):
        sim = ClusteringSim(params, rngs.stream("c6"))
        sim.run(max_time=300.0)
        fractions = [f for _, f in sim.clustered_trajectory]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_deterministic_replay(self, params):
        from repro.engine.rng import RngRegistry

        first = ClusteringSim(params, RngRegistry(3).stream("x")).run(max_time=300.0)
        second = ClusteringSim(params, RngRegistry(3).stream("x")).run(max_time=300.0)
        assert (first.leader_of == second.leader_of).all()
        assert first.switch_times == second.switch_times

    def test_members_never_switch_clusters(self, params, rngs):
        sim = ClusteringSim(params, rngs.stream("c7"))
        snapshots = []
        for _ in range(6):
            sim.sim.run(max_events=3000)
            snapshots.append(sim.leader_of.copy())
        for earlier, later in zip(snapshots, snapshots[1:]):
            assigned = earlier >= 0
            assert (later[assigned] == earlier[assigned]).all()


class TestFaithfulPause:
    """The paper's pause/reopen admission pacing (Section 4.1)."""

    @pytest.fixture()
    def params(self) -> MultiLeaderParams:
        return MultiLeaderParams(n=800, k=2, alpha0=2.0)

    def test_produces_valid_clustering(self, params, rngs):
        sim = ClusteringSim(params, rngs.stream("fp"), faithful_pause=True)
        clustering = sim.run(max_time=400.0)
        assert clustering.clustered_fraction > 0.7
        sizes = clustering.cluster_sizes()
        assert max(sizes.values()) <= params.max_cluster_size

    def test_pause_delays_readiness(self, params):
        from repro.engine.rng import RngRegistry

        plain = ClusteringSim(params, RngRegistry(5).stream("p")).run(max_time=400.0)
        paused = ClusteringSim(
            params, RngRegistry(5).stream("p"), faithful_pause=True, pause_units=2.0
        ).run(max_time=400.0)
        # Same randomness; the pause window postpones the first switch.
        assert min(paused.switch_times.values()) > min(plain.switch_times.values())

    def test_clusters_can_exceed_target_after_reopen(self, params, rngs):
        sim = ClusteringSim(
            params, rngs.stream("fp2"), faithful_pause=True, pause_units=0.2
        )
        clustering = sim.run(max_time=400.0)
        sizes = clustering.cluster_sizes()
        # With a short pause, at least one cluster reopened and grew
        # beyond the target size.
        assert any(size > params.target_cluster_size for size in sizes.values())
