"""Equivalence harness: batched-RNG fast engine vs. the seed engine.

Three layers of evidence that the vectorized hot path did not change
the simulated protocols:

1. **Deterministic schedules, exact**: the tuple dispatcher executes a
   handcrafted schedule (ties, cancellations, nested scheduling) in
   exactly the documented order, twice over.

2. **Scalar replay, exact**: with pool block size 1, every pool draw is
   one immediate generator call in the same order as the seed engine's
   scalar calls, so the fast simulators must reproduce the preserved
   seed implementations (:mod:`repro.core.reference`) *trajectory for
   trajectory* — same elapsed time, same event count, same final
   counts. This pins the protocol-logic conversion exactly (block-1
   pools force the tick window to 1, collapsing the batched chains to
   event-granular scheduling in scalar draw order).

3. **Batched runs, statistical**: with production block sizes the draw
   interleaving differs (identical law, different sequence), so
   convergence-time distributions are compared over ≥30 seeds with a
   two-sample Kolmogorov–Smirnov test and a CI-overlap check on the
   means — for single-leader, delayed-exchange, and the population
   baseline.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.engine.rng as engine_rng
from repro.baselines.population import PairwiseScheduler, ThreeStateMajority
from repro.core.delayed_exchange import DelayedExchangeSim
from repro.core.params import SingleLeaderParams
from repro.core.reference import (
    ReferenceDelayedExchangeSim,
    ReferenceSingleLeaderSim,
    reference_population_run,
)
from repro.core.single_leader import SingleLeaderSim
from repro.engine.simulator import Simulator

KS_P_FLOOR = 0.01


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def scalar_blocks(monkeypatch):
    """Force pool block size 1: one generator call per draw, seed order.

    Block-1 pools force tick window 1, so the engine must replay the
    scalar-draw reference exactly — same draws, same dispatch order,
    same event counts.
    """
    monkeypatch.setattr(engine_rng, "DEFAULT_BLOCK", 1)


def ci95(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    half = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
    return mean - half, mean + half


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


class TestDeterministicSchedules:
    def test_dispatch_order_with_ties_and_cancellation(self):
        sim = Simulator()
        log: list[tuple[float, str]] = []

        def note(label: str) -> None:
            log.append((sim.now, label))

        sim.schedule(2.0, note, "tie-first")
        sim.schedule(2.0, note, "tie-second")
        doomed = sim.schedule(1.5, note, "cancelled")
        sim.schedule(1.0, note, "early")

        def chain() -> None:
            note("chain")
            sim.schedule_in(1.0, note, "chained-child")

        sim.schedule(0.5, chain)
        sim.cancel(doomed)
        sim.run()
        assert log == [
            (0.5, "chain"),
            (1.0, "early"),
            (1.5, "chained-child"),
            (2.0, "tie-first"),
            (2.0, "tie-second"),
        ]
        assert sim.events_executed == 5

    def test_identical_schedules_replay_identically(self):
        def build_and_run() -> list[tuple[float, int]]:
            sim = Simulator()
            log: list[tuple[float, int]] = []
            for index in range(50):
                sim.schedule(float(index % 7), lambda i: log.append((sim.now, i)), index)
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestExactScalarReplay:
    """Block-1 pools consume the shared generator in seed order, so the
    fast engine must replay the preserved seed implementation exactly."""

    @pytest.mark.parametrize(
        "seed, counts, run_kwargs",
        [
            pytest.param(1, [30, 18], {}, id="1"),
            pytest.param(3, [30, 18], {}, id="3"),
            pytest.param(11, [30, 18], {}, id="11"),
            # Decided starts: all one color, or the ε-target already met
            # (ceil(0.5 · 48) = 24 <= 30), stopping there or running on.
            pytest.param(1, [48, 0], {}, id="1-one-color"),
            pytest.param(3, [30, 18], dict(epsilon=0.5, stop_at_epsilon=True), id="3-eps-met-stop"),
            pytest.param(11, [30, 18], dict(epsilon=0.5), id="11-eps-met-continue"),
        ],
    )
    def test_single_leader_replays_reference(self, scalar_blocks, seed, counts, run_kwargs):
        params = SingleLeaderParams(n=48, k=2, alpha0=1.5)
        counts = np.array(counts)
        fast = SingleLeaderSim(params, counts, generator(seed)).run(max_time=400.0, **run_kwargs)
        ref = ReferenceSingleLeaderSim(params, counts, generator(seed)).run(
            max_time=400.0, **run_kwargs
        )
        assert fast.elapsed == ref.elapsed
        assert fast.epsilon_convergence_time == ref.epsilon_convergence_time
        assert fast.converged == ref.converged
        assert fast.winner == ref.winner
        assert fast.info["events"] == ref.info["events"]
        assert fast.info["total_ticks"] == ref.info["total_ticks"]
        assert fast.info["good_ticks"] == ref.info["good_ticks"]
        assert (fast.final_color_counts == ref.final_color_counts).all()
        assert [b.time for b in fast.births] == [b.time for b in ref.births]

    @pytest.mark.parametrize("seed", [2, 7])
    def test_delayed_exchange_replays_reference(self, scalar_blocks, seed):
        params = SingleLeaderParams(n=40, k=2, alpha0=1.5)
        counts = np.array([26, 14])
        fast_sim = DelayedExchangeSim(
            params, counts, generator(seed), exchange_rate=2.0
        )
        fast = fast_sim.run(max_time=400.0)
        ref_sim = ReferenceDelayedExchangeSim(
            params, counts, generator(seed), exchange_rate=2.0
        )
        ref = ref_sim.run(max_time=400.0)
        assert fast.elapsed == ref.elapsed
        assert fast.info["events"] == ref.info["events"]
        assert (fast.final_color_counts == ref.final_color_counts).all()
        assert fast_sim.committed_updates == ref_sim.committed_updates
        assert fast_sim.aborted_updates == ref_sim.aborted_updates


class TestStatisticalEquivalence:
    """Production block sizes: same law, different draw interleaving —
    trajectory distributions must agree.

    The compared statistic is the ε-convergence time (first time the
    plurality covers 90%, Theorem 13's notion), which is far less
    heavy-tailed than the full-consensus time truncated at ``max_time``
    — full-consensus tails make CI-overlap checks flaky at this sample
    size without adding any discriminating power.
    """

    @staticmethod
    def _epsilon_time_sample(cls, seeds, **kwargs) -> np.ndarray:
        params = SingleLeaderParams(n=48, k=2, alpha0=1.5)
        counts = np.array([30, 18])
        out = []
        for seed in seeds:
            result = cls(params, counts, generator(seed), **kwargs).run(
                max_time=400.0, epsilon=0.1, stop_at_epsilon=True
            )
            time = result.epsilon_convergence_time
            out.append(result.elapsed if time is None else time)
        return np.array(out)

    def test_single_leader_convergence_distribution(self):
        fast = self._epsilon_time_sample(SingleLeaderSim, range(40))
        ref = self._epsilon_time_sample(ReferenceSingleLeaderSim, range(5000, 5040))
        assert scipy_stats.ks_2samp(fast, ref).pvalue > KS_P_FLOOR
        assert intervals_overlap(ci95(fast), ci95(ref))

    def test_delayed_exchange_convergence_distribution(self):
        fast = self._epsilon_time_sample(
            DelayedExchangeSim, range(30), exchange_rate=2.0
        )
        ref = self._epsilon_time_sample(
            ReferenceDelayedExchangeSim, range(6000, 6030), exchange_rate=2.0
        )
        assert scipy_stats.ks_2samp(fast, ref).pvalue > KS_P_FLOOR
        assert intervals_overlap(ci95(fast), ci95(ref))

    def test_population_baseline_interaction_distribution(self):
        counts = np.array([90, 60])
        protocol = ThreeStateMajority()

        def fast_sample(seeds):
            return np.array(
                [
                    PairwiseScheduler(protocol)
                    .run(counts, generator(seed))
                    .interactions
                    for seed in seeds
                ],
                dtype=float,
            )

        def ref_sample(seeds):
            return np.array(
                [
                    reference_population_run(protocol, counts, generator(seed)).interactions
                    for seed in seeds
                ],
                dtype=float,
            )

        fast = fast_sample(range(30))
        ref = ref_sample(range(7000, 7030))
        assert scipy_stats.ks_2samp(fast, ref).pvalue > KS_P_FLOOR
        assert intervals_overlap(ci95(fast), ci95(ref))
