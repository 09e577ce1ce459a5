"""Cross-shard-count differential tests: sharding must not change the law.

The sharded count engines are distribution-exact (a sum of independent
multinomials with shared global probabilities is the global
multinomial), so convergence-time distributions at ``shards ∈ {2, 4}``
must be statistically indistinguishable from ``shards=1``: two-sample
Kolmogorov–Smirnov plus a CI-overlap check on the means, the same gate
:mod:`tests.engine.test_fast_equivalence` applies to the batched event
engine. The sharded *population* scheduler is the one approximate
engine (block-granular intra-shard pairs plus a small cross-shard
exchange), so it gets the CI-overlap gate only. The unsharded per-node
and aggregate synchronous engines are held to the same gate against
each other.

A fast subset runs in tier-1; the full matrix (voter / three-majority /
both synchronous engines at n=2000, shards {2, 4}, ≥30 seeds) is
marked ``slow`` and runs in the CI shard-smoke job. All seeds are
fixed: a pass is deterministic, not a coin flip.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.baselines.base import run_dynamics
from repro.baselines.population import PairwiseScheduler, ThreeStateMajority
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.voter import PullVoting
from repro.core.schedule import FixedSchedule
from repro.core.synchronous import run_synchronous
from repro.engine.rng import RngRegistry
from repro.shard import run_sharded_population
from repro.workloads import biased_counts

KS_P_FLOOR = 0.01


def ci95(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    half = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
    return mean - half, mean + half


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _assert_equivalent(baseline: list[float], sharded: list[float], label: str) -> None:
    baseline = np.asarray(baseline, dtype=float)
    sharded = np.asarray(sharded, dtype=float)
    ks = scipy_stats.ks_2samp(baseline, sharded)
    assert ks.pvalue >= KS_P_FLOOR, (
        f"{label}: KS p={ks.pvalue:.4g} — sharded convergence times are "
        f"distinguishable from shards=1 (means {baseline.mean():.1f} "
        f"vs {sharded.mean():.1f})"
    )
    assert intervals_overlap(ci95(baseline), ci95(sharded)), (
        f"{label}: 95% CIs do not overlap "
        f"({ci95(baseline)} vs {ci95(sharded)})"
    )


def _dynamics_times(dynamics_cls, n, k, alpha, seeds, shards, *, max_rounds=100_000):
    times = []
    counts = biased_counts(n, k, alpha)
    for seed in seeds:
        result = run_dynamics(
            dynamics_cls(),
            counts,
            RngRegistry(seed).stream("diff"),
            shards=shards,
            max_rounds=max_rounds,
        )
        times.append(float(result.elapsed))
    return times


def _sync_times(engine, n, k, alpha, seeds, shards):
    times = []
    counts = biased_counts(n, k, alpha)
    for seed in seeds:
        result = run_synchronous(
            counts,
            FixedSchedule(n=n, k=k, alpha0=alpha),
            RngRegistry(seed).stream("diff"),
            engine=engine,
            shards=shards,
        )
        times.append(float(result.elapsed))
    return times


def _population_interactions(n, alpha, seeds, shards):
    interactions = []
    counts = biased_counts(n, 2, alpha)
    for seed in seeds:
        result = run_sharded_population(
            ThreeStateMajority(),
            counts,
            RngRegistry(seed).stream("diff"),
            shards=shards,
        )
        assert result.converged
        interactions.append(float(result.interactions))
    return interactions


class TestFastDifferential:
    """Tier-1 subset: shards=2 vs shards=1, 12 seeds, n=2000."""

    SEEDS = range(100, 112)

    def test_three_majority(self):
        baseline = _dynamics_times(ThreeMajority, 2000, 3, 1.5, self.SEEDS, 1)
        sharded = _dynamics_times(ThreeMajority, 2000, 3, 1.5, self.SEEDS, 2)
        _assert_equivalent(baseline, sharded, "three-majority shards=2")

    def test_synchronous_aggregate(self):
        baseline = _sync_times("aggregate", 2000, 4, 1.5, self.SEEDS, 1)
        sharded = _sync_times("aggregate", 2000, 4, 1.5, self.SEEDS, 2)
        _assert_equivalent(baseline, sharded, "synchronous-aggregate shards=2")

    def test_synchronous_pernode(self):
        baseline = _sync_times("pernode", 2000, 4, 1.5, self.SEEDS, 1)
        sharded = _sync_times("pernode", 2000, 4, 1.5, self.SEEDS, 2)
        _assert_equivalent(baseline, sharded, "synchronous-pernode shards=2")

    def test_synchronous_pernode_vs_aggregate(self):
        """The two unsharded engines model the same process.

        The aggregate engine samples pairs with self-inclusion (the
        sampler is one of the ``n`` candidates), an ``O(1/n)``
        perturbation of the per-node law that excludes the sampler.
        """
        pernode = _sync_times("pernode", 2000, 4, 1.5, self.SEEDS, 1)
        aggregate = _sync_times("aggregate", 2000, 4, 1.5, self.SEEDS, 1)
        _assert_equivalent(pernode, aggregate, "synchronous pernode vs aggregate")

    def test_population_ci_overlap(self):
        seeds = range(200, 210)
        baseline = _population_interactions(2000, 2.0, seeds, 1)
        sharded = _population_interactions(2000, 2.0, seeds, 2)
        assert intervals_overlap(
            ci95(np.asarray(baseline)), ci95(np.asarray(sharded))
        ), (
            f"population shards=2: interaction-count CIs do not overlap "
            f"({ci95(np.asarray(baseline))} vs {ci95(np.asarray(sharded))})"
        )


@pytest.mark.slow
class TestFullMatrix:
    """Full differential matrix: shards {2, 4}, ≥30 seeds, n=2000.

    Voter runs are censored at ``max_rounds=2000`` (identical censoring
    in both arms keeps the comparison valid — the late absorption tail
    is diffusion-limited and would dominate wall time otherwise).
    """

    SEEDS = range(300, 330)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_voter(self, shards):
        kwargs = dict(max_rounds=2000)
        baseline = _dynamics_times(PullVoting, 2000, 2, 2.0, self.SEEDS, 1, **kwargs)
        sharded = _dynamics_times(
            PullVoting, 2000, 2, 2.0, self.SEEDS, shards, **kwargs
        )
        _assert_equivalent(baseline, sharded, f"voter shards={shards}")

    @pytest.mark.parametrize("shards", [2, 4])
    def test_three_majority(self, shards):
        baseline = _dynamics_times(ThreeMajority, 2000, 3, 1.5, self.SEEDS, 1)
        sharded = _dynamics_times(ThreeMajority, 2000, 3, 1.5, self.SEEDS, shards)
        _assert_equivalent(baseline, sharded, f"three-majority shards={shards}")

    @pytest.mark.parametrize("engine", ["aggregate", "pernode"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_synchronous(self, engine, shards):
        baseline = _sync_times(engine, 2000, 4, 1.5, self.SEEDS, 1)
        sharded = _sync_times(engine, 2000, 4, 1.5, self.SEEDS, shards)
        _assert_equivalent(baseline, sharded, f"synchronous-{engine} shards={shards}")

    @pytest.mark.parametrize("shards", [2, 4])
    def test_population_ci_overlap(self, shards):
        seeds = range(400, 420)
        baseline = _population_interactions(2000, 2.0, seeds, 1)
        sharded = _population_interactions(2000, 2.0, seeds, shards)
        assert intervals_overlap(
            ci95(np.asarray(baseline)), ci95(np.asarray(sharded))
        ), (
            f"population shards={shards}: interaction-count CIs do not overlap "
            f"({ci95(np.asarray(baseline))} vs {ci95(np.asarray(sharded))})"
        )
