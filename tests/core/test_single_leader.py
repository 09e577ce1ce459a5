"""Integration tests for the asynchronous single-leader protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastcore
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim, run_single_leader
from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError, SchedulingError
from repro.workloads.opinions import biased_counts


def make_params(n=600, k=3, alpha=2.0, **kwargs) -> SingleLeaderParams:
    return SingleLeaderParams(n=n, k=k, alpha0=alpha, **kwargs)


class TestValidation:
    def test_counts_must_match_n(self, rng):
        with pytest.raises(ConfigurationError):
            SingleLeaderSim(make_params(n=600), biased_counts(500, 3, 2.0), rng)

    def test_counts_must_match_k(self, rng):
        with pytest.raises(ConfigurationError):
            SingleLeaderSim(make_params(n=600, k=3), biased_counts(600, 4, 2.0), rng)

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            make_params(alpha=1.0)
        with pytest.raises(ConfigurationError):
            SingleLeaderParams(n=100, k=3, alpha0=2.0, latency_rate=0.0)

    @pytest.mark.parametrize(
        "run_kwargs",
        [
            dict(max_time=-1.0),
            dict(max_time=float("nan")),
            dict(epsilon=1.5),
            dict(epsilon=1.0),
            dict(epsilon=0.0),
            dict(epsilon=-0.5),
            dict(record_every=0.0),
            dict(record_every=-1.0),
            dict(record_every=float("nan")),
        ],
        ids=[
            "negative-max-time", "nan-max-time", "epsilon-above-1", "epsilon-1",
            "epsilon-0", "negative-epsilon", "record-every-0", "negative-record-every",
            "nan-record-every",
        ],
    )
    def test_bad_run_inputs_rejected_before_running(self, rng, run_kwargs):
        sim = SingleLeaderSim(make_params(n=60, k=2), biased_counts(60, 2, 2.0), rng)
        with pytest.raises(ConfigurationError):
            sim.run(**run_kwargs)
        assert sim.sim.events_executed == 0
        assert sim.sim.now == 0.0

    @pytest.mark.parametrize("core", ["c", "python"])
    def test_past_horizon_rejected_on_either_core(self, rng, monkeypatch, core):
        """A second run with a smaller budget must not turn the clock back."""
        if core == "python":
            monkeypatch.setattr(fastcore, "_core", None)
        elif fastcore.load() is None:
            pytest.skip("compiled core unavailable")
        sim = SingleLeaderSim(make_params(n=60, k=2), biased_counts(60, 2, 2.0), rng)
        assert not sim.run(max_time=5.0).converged
        assert sim.core == core
        before = (sim.sim.now, sim.sim.events_executed, sim.sim._next_seq)
        with pytest.raises(SchedulingError):
            sim.run(max_time=2.0)
        assert (sim.sim.now, sim.sim.events_executed, sim.sim._next_seq) == before
        assert before[0] == 5.0

    def test_zero_budget_runs_nothing(self, rng):
        sim = SingleLeaderSim(make_params(n=60, k=2), biased_counts(60, 2, 2.0), rng)
        result = sim.run(max_time=0.0)
        assert result.elapsed == 0.0
        assert sim.sim.events_executed == 0

    def test_derived_quantities(self):
        params = make_params(n=1000)
        assert params.time_unit > 0
        assert params.gen_size_threshold == 500
        assert params.prop_signal_threshold == pytest.approx(
            2.0 * params.time_unit * 1000, abs=1.0
        )


class TestConvergence:
    def test_full_consensus_plurality_wins(self, rngs):
        params = make_params()
        counts = biased_counts(params.n, params.k, 2.0)
        result = run_single_leader(params, counts, rngs.stream("sl"), max_time=800.0)
        assert result.converged
        assert result.plurality_won
        assert int(result.final_color_counts.max()) == params.n

    def test_epsilon_convergence_recorded(self, rngs):
        params = make_params()
        counts = biased_counts(params.n, params.k, 2.0)
        result = run_single_leader(
            params, counts, rngs.stream("sl-eps"), max_time=800.0, epsilon=0.05
        )
        assert result.epsilon_convergence_time is not None
        assert result.epsilon_convergence_time <= result.elapsed

    def test_stop_at_epsilon_halts_early(self, rngs):
        params = make_params()
        counts = biased_counts(params.n, params.k, 2.0)
        full = run_single_leader(params, counts, rngs.stream("a"), max_time=800.0)
        early = run_single_leader(
            params, counts, rngs.stream("a"), max_time=800.0,
            epsilon=0.10, stop_at_epsilon=True,
        )
        assert early.elapsed <= full.elapsed

    def test_time_budget_respected(self, rngs):
        params = make_params()
        counts = biased_counts(params.n, params.k, 2.0)
        result = run_single_leader(params, counts, rngs.stream("b"), max_time=3.0)
        assert not result.converged
        assert result.elapsed <= 3.0 + 1e-9

    def test_deterministic_replay(self):
        params = make_params(n=400)
        counts = biased_counts(400, 3, 2.0)
        first = run_single_leader(params, counts, RngRegistry(5).stream("r"), max_time=500.0)
        second = run_single_leader(params, counts, RngRegistry(5).stream("r"), max_time=500.0)
        assert first.elapsed == second.elapsed
        assert (first.final_color_counts == second.final_color_counts).all()


class TestInvariants:
    def test_node_generation_never_exceeds_leader(self, rngs):
        params = make_params(n=400)
        counts = biased_counts(400, 3, 2.0)
        sim = SingleLeaderSim(params, counts, rngs.stream("inv"))
        for _ in range(40):
            sim.sim.run(max_events=2000)
            assert int(sim.gens.max()) <= sim.leader.gen
            assert sim.matrix.sum() == 400
            assert (sim.matrix >= 0).all()
            assert (sim.color_counts == sim.matrix.sum(axis=0)).all()
            if not sim.sim._heap:
                break

    def test_leader_generation_capped(self, rngs):
        params = make_params(n=400)
        counts = biased_counts(400, 3, 2.0)
        sim = SingleLeaderSim(params, counts, rngs.stream("cap"))
        sim.run(max_time=800.0)
        assert sim.leader.gen <= params.max_generation

    def test_good_ticks_bounded_by_total(self, rngs):
        params = make_params(n=300)
        counts = biased_counts(300, 3, 2.0)
        sim = SingleLeaderSim(params, counts, rngs.stream("ticks"))
        result = sim.run(max_time=100.0)
        assert result.info["good_ticks"] <= result.info["total_ticks"]
        # Ticks arrive at aggregate rate n: expect ~n*T total ticks.
        expected = 300 * result.elapsed
        assert result.info["total_ticks"] == pytest.approx(expected, rel=0.2)


class TestPhaseRecords:
    def test_births_match_leader_propagation_flips(self, rngs):
        params = make_params(n=500)
        counts = biased_counts(500, 3, 2.0)
        sim = SingleLeaderSim(params, counts, rngs.stream("phases"))
        sim.run(max_time=800.0)
        flips = sim.leader.propagation_times()
        recorded = {birth.generation for birth in sim.births}
        assert recorded == set(flips)

    def test_two_choices_window_near_two_units(self, rngs):
        params = make_params(n=800)
        counts = biased_counts(800, 3, 2.0)
        sim = SingleLeaderSim(params, counts, rngs.stream("window"))
        sim.run(max_time=800.0)
        births = sim.leader.generation_birth_times()
        for generation, flip_time in sim.leader.propagation_times().items():
            window = (flip_time - births[generation]) / params.time_unit
            # Proposition 16: ~2 units (loose factor for small n).
            assert 1.0 < window < 4.0

    def test_trajectory_sampler(self, rngs):
        params = make_params(n=300)
        counts = biased_counts(300, 3, 2.0)
        result = run_single_leader(
            params, counts, rngs.stream("sampler"), max_time=50.0, record_every=5.0
        )
        assert len(result.trajectory) >= 8
        times = [s.time for s in result.trajectory]
        assert times == sorted(times)
