"""Integration tests for Algorithms 4+5 (multi-leader consensus)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError
from repro.multileader.clustering import ideal_clustering
from repro.multileader.consensus import MultiLeaderConsensusSim, run_multileader_consensus
from repro.multileader.params import MultiLeaderParams
from repro.workloads.opinions import biased_counts


@pytest.fixture()
def params() -> MultiLeaderParams:
    return MultiLeaderParams(n=600, k=3, alpha0=2.5)


@pytest.fixture()
def clustering(params):
    return ideal_clustering(params.n, params.target_cluster_size)


class TestValidation:
    def test_counts_size_checked(self, params, clustering, rng):
        with pytest.raises(ConfigurationError):
            MultiLeaderConsensusSim(params, clustering, biased_counts(500, 3, 2.5), rng)

    def test_clustering_size_checked(self, params, rng):
        wrong = ideal_clustering(300, 30)
        with pytest.raises(ConfigurationError):
            MultiLeaderConsensusSim(params, wrong, biased_counts(600, 3, 2.5), rng)


    @pytest.mark.parametrize(
        "run_kwargs",
        [
            dict(max_time=-1.0),
            dict(epsilon=1.5),
            dict(epsilon=-0.5),
            dict(record_every=0.0),
        ],
        ids=["negative-max-time", "epsilon-above-1", "negative-epsilon", "record-every-0"],
    )
    def test_bad_run_inputs_rejected_before_running(self, params, clustering, rng, run_kwargs):
        sim = MultiLeaderConsensusSim(params, clustering, biased_counts(600, 3, 2.5), rng)
        with pytest.raises(ConfigurationError):
            sim.run(**run_kwargs)
        assert sim.sim.events_executed == 0


class TestConvergence:
    def test_full_consensus_plurality_wins(self, params, clustering, rngs):
        counts = biased_counts(params.n, params.k, 2.5)
        result = run_multileader_consensus(
            params, clustering, counts, rngs.stream("mlc"), max_time=3000.0
        )
        assert result.converged
        assert result.plurality_won

    def test_epsilon_time_recorded(self, params, clustering, rngs):
        counts = biased_counts(params.n, params.k, 2.5)
        result = run_multileader_consensus(
            params, clustering, counts, rngs.stream("mlc2"), max_time=3000.0, epsilon=0.05
        )
        assert result.epsilon_convergence_time is not None
        assert result.epsilon_convergence_time <= result.elapsed

    def test_deterministic_replay(self, params, clustering):
        counts = biased_counts(params.n, params.k, 2.5)
        first = run_multileader_consensus(
            params, clustering, counts, RngRegistry(9).stream("d"), max_time=2000.0
        )
        second = run_multileader_consensus(
            params, clustering, counts, RngRegistry(9).stream("d"), max_time=2000.0
        )
        assert first.elapsed == second.elapsed
        assert (first.final_color_counts == second.final_color_counts).all()

    def test_inactive_members_still_converge_via_finished_push(self, params, rngs):
        """Nodes outside active clusters receive the final color by pushes."""
        # Build a clustering with one inactive block: mark 20% unclustered.
        clustering = ideal_clustering(params.n, params.target_cluster_size)
        cut = int(0.8 * params.n)
        clustering.leader_of[cut:] = -1
        clustering.active_leaders = [l for l in clustering.active_leaders if l < cut]
        counts = biased_counts(params.n, params.k, 2.5)
        result = run_multileader_consensus(
            params, clustering, counts, rngs.stream("push"), max_time=4000.0
        )
        assert result.converged
        assert result.plurality_won


class TestInvariants:
    def test_matrix_conservation_and_leader_cap(self, params, clustering, rngs):
        counts = biased_counts(params.n, params.k, 2.5)
        sim = MultiLeaderConsensusSim(params, clustering, counts, rngs.stream("inv"))
        for _ in range(30):
            sim.sim.run(max_events=4000)
            assert sim.matrix.sum() == params.n
            assert (sim.matrix >= 0).all()
            max_leader_gen = max(state.gen for state in sim.leaders.values())
            assert int(sim.gens.max()) <= max_leader_gen
            if not sim.sim._heap:
                break

    def test_phase_table_structure(self, params, clustering, rngs):
        counts = biased_counts(params.n, params.k, 2.5)
        sim = MultiLeaderConsensusSim(params, clustering, counts, rngs.stream("pt"))
        sim.run(max_time=2000.0)
        table = sim.leader_phase_table()
        assert table, "no leader transitions recorded"
        for generation, states in table.items():
            assert generation >= 1
            for state, leaders in states.items():
                assert state in (1, 2, 3)
                for leader, time in leaders.items():
                    assert leader in sim.leaders
                    assert time >= 0.0

    def test_finished_flag_spreads(self, params, clustering, rngs):
        counts = biased_counts(params.n, params.k, 2.5)
        sim = MultiLeaderConsensusSim(params, clustering, counts, rngs.stream("fin"))
        result = sim.run(max_time=3000.0)
        assert result.converged
        assert bool(sim.finished.any())
