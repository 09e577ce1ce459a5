"""Tests for the Section 5 delayed-exchange extension."""

from __future__ import annotations

import pytest

from repro.core.delayed_exchange import DelayedExchangeSim
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError
from repro.workloads.opinions import biased_counts


@pytest.fixture()
def params() -> SingleLeaderParams:
    return SingleLeaderParams(n=500, k=3, alpha0=2.5)


@pytest.fixture()
def counts(params):
    return biased_counts(params.n, params.k, 2.5)


class TestValidation:
    def test_exchange_rate_must_be_positive(self, params, counts, rng):
        with pytest.raises(ConfigurationError):
            DelayedExchangeSim(params, counts, rng, exchange_rate=0.0)


class TestCorrectness:
    def test_consensus_with_delays(self, params, counts, rngs):
        sim = DelayedExchangeSim(params, counts, rngs.stream("dx"), exchange_rate=1.0)
        result = sim.run(max_time=4000.0)
        assert result.converged
        assert result.plurality_won

    def test_commit_accounting(self, params, counts, rngs):
        sim = DelayedExchangeSim(params, counts, rngs.stream("dx2"), exchange_rate=1.0)
        sim.run(max_time=4000.0)
        assert sim.committed_updates > 0
        total = sim.committed_updates + sim.aborted_updates
        # Aborts happen (leader states do change) but stay a minority.
        assert 0 <= sim.aborted_updates / total < 0.5

    def test_invariant_node_gen_below_leader(self, params, counts, rngs):
        sim = DelayedExchangeSim(params, counts, rngs.stream("dx3"), exchange_rate=0.5)
        for _ in range(20):
            sim.sim.run(max_events=3000)
            assert int(sim.gens.max()) <= sim.leader.gen
            assert sim.matrix.sum() == params.n
            if not sim.sim._heap:
                break

    def test_slower_exchange_slower_consensus(self, params, counts):
        fast = DelayedExchangeSim(
            params, counts, RngRegistry(1).stream("f"), exchange_rate=8.0
        ).run(max_time=8000.0)
        slow = DelayedExchangeSim(
            params, counts, RngRegistry(1).stream("f"), exchange_rate=0.25
        ).run(max_time=8000.0)
        assert fast.converged and slow.converged
        assert slow.elapsed > fast.elapsed

    def test_costs_more_than_instant_model(self, params, counts):
        instant = SingleLeaderSim(params, counts, RngRegistry(2).stream("i")).run(
            max_time=8000.0
        )
        delayed = DelayedExchangeSim(
            params, counts, RngRegistry(2).stream("i"), exchange_rate=1.0
        ).run(max_time=8000.0)
        assert delayed.elapsed > instant.elapsed

    def test_deterministic_replay(self, params, counts):
        runs = [
            DelayedExchangeSim(
                params, counts, RngRegistry(5).stream("r"), exchange_rate=1.0
            ).run(max_time=4000.0)
            for _ in range(2)
        ]
        assert runs[0].elapsed == runs[1].elapsed
