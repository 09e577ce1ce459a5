"""Registry of all reproduction experiments.

Every figure and theorem-level claim of the paper maps to one entry
(see ``docs/paper-map.md`` for the full claim → module → test index).
``python -m repro list`` prints this table; ``python -m repro run <id>``
executes one experiment; ``python -m repro reproduce --out <file>``
writes every table as Markdown (cached and parallel with ``--cache-dir`` /
``--workers``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments import (
    ablation_mechanisms,
    async_single,
    baselines_faceoff,
    bias_squaring,
    broadcast_exp,
    clustering_exp,
    ext_delayed,
    ext_distributions,
    fig1_latency,
    fig2_phases,
    gamma_ablation,
    generation_growth,
    multileader_consensus,
    robustness,
    sync_scaling,
)
from repro.experiments.common import Experiment, ExperimentResult

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment", "experiment_ids"]


EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in [
        Experiment(
            name="fig1",
            artifact="Figure 1, Remark 14, Example 15",
            description="Steps per time unit F^{-1}(0.9) vs expected latency 1/lambda",
            runner=fig1_latency.run,
        ),
        Experiment(
            name="fig2",
            artifact="Figure 2, Proposition 31",
            description="Multi-leader phase timeline and synchronization ordering",
            runner=fig2_phases.run,
        ),
        Experiment(
            name="thm1",
            artifact="Theorem 1",
            description="Synchronous convergence time scaling in n, k, alpha",
            runner=sync_scaling.run,
        ),
        Experiment(
            name="gamma",
            artifact="Section 2.2 empirical remark",
            description="Gamma ablation: speed vs stability around gamma=1/2",
            runner=gamma_ablation.run,
        ),
        Experiment(
            name="bias2",
            artifact="Lemma 4, Corollary 7, Proposition 8, Remark 2",
            description="Per-generation bias squaring and collision probability floor",
            runner=bias_squaring.run,
        ),
        Experiment(
            name="growth",
            artifact="Proposition 9",
            description="Generation growth to gamma*n within X_i steps",
            runner=generation_growth.run,
        ),
        Experiment(
            name="thm13",
            artifact="Theorem 13, Propositions 16/17",
            description="Single-leader asynchronous protocol timing",
            runner=async_single.run,
        ),
        Experiment(
            name="thm26",
            artifact="Theorem 26, Section 4.5",
            description="Decentralized multi-leader protocol vs single leader",
            runner=multileader_consensus.run,
        ),
        Experiment(
            name="thm27",
            artifact="Theorem 27",
            description="Clustering coverage and consensus-mode switch spread",
            runner=clustering_exp.run,
        ),
        Experiment(
            name="thm28",
            artifact="Theorem 28",
            description="Constant-time broadcast among cluster leaders",
            runner=broadcast_exp.run,
        ),
        Experiment(
            name="ablation",
            artifact="docs/paper-map.md design-choice ablations",
            description="Full protocol vs single-sample promotion vs no-propagation",
            runner=ablation_mechanisms.run,
        ),
        Experiment(
            name="ext-delayed",
            artifact="Section 5 (open question / future work)",
            description="Non-instant message exchange with optimistic revalidation",
            runner=ext_delayed.run,
        ),
        Experiment(
            name="ext-distributions",
            artifact="Section 5 (open question / future work)",
            description="Single-leader protocol under non-exponential latency laws",
            runner=ext_distributions.run,
        ),
        Experiment(
            name="baselines",
            artifact="Section 1.1 related work",
            description="Generations vs voter/two-choices/3-majority/undecided/population",
            runner=baselines_faceoff.run,
        ),
        Experiment(
            name="robustness",
            artifact="beyond the paper (docs/paper-map.md)",
            description="Positive aging under adversity: topology, loss, churn, hard starts",
            runner=robustness.run,
        ),
    ]
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    """Look up one experiment; unknown names raise with the valid list."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, *, quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(name).run(quick=quick, seed=seed)
