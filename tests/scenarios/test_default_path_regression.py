"""Default-path regression guard: no graph argument == pre-scenario engine.

``golden_default_path.json`` was generated from the repository *before*
the scenario subsystem existed (same seeds, same configurations). The
round-based protocols invoked with ``graph=None`` or
``graph=CompleteGraph(n)`` must reproduce those trajectories
byte-for-byte — the scenario layer is not allowed to perturb the legacy
world, not even by one RNG draw.  The event engine draws in
window-granular order (statistically equivalent to the scalar-draw
reference — see ``tests/engine/test_fast_equivalence.py``); its
trajectories are pinned in ``golden_default_path_batch.json`` so future
engine changes cannot slip through unnoticed.  The unsharded per-node
synchronous engine's full trajectories (fixed schedule, ``int64`` state
fallback, round faults with churn rejoins, a sparse graph, an explicit
placement) are pinned under ``pernode_unsharded``, and multi-leader
runs whose consensus phase starts decided (all one color, or the
ε-target already met) under ``multileader_decided_starts``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import ThreeMajority, run_dynamics
from repro.core.delayed_exchange import DelayedExchangeSim
from repro.core.params import SingleLeaderParams
from repro.core.schedule import AlwaysTwoChoices, FixedSchedule
from repro.core.single_leader import SingleLeaderSim
from repro.core.synchronous import PerNodeSynchronousSim
from repro.engine.network import CompleteGraph
from repro.engine.rng import RngRegistry
from repro.multileader.params import MultiLeaderParams
from repro.multileader.protocol import run_multileader
from repro.scenarios.round_faults import build_round_faults, prepare_round_faults
from repro.scenarios.topology import build_graph
from repro.sweep.runner import execute_run
from repro.sweep.spec import SweepSpec
from repro.workloads.opinions import biased_counts, counts_to_assignment

GOLDEN = json.loads((Path(__file__).parent / "golden_default_path.json").read_text())
GOLDEN_BATCH = json.loads(
    (Path(__file__).parent / "golden_default_path_batch.json").read_text()
)
#: Round-seam era pins (generated when the round-level fault subsystem
#: landed): population scheduler, aggregate engine, population target.
GOLDEN_ROUND = json.loads(
    (Path(__file__).parent / "golden_round_defaults.json").read_text()
)

#: graph= values that must hit the identical code path.
DEFAULT_GRAPHS = [None, "complete"]


def _graph(tag, n):
    return CompleteGraph(n) if tag == "complete" else None


@pytest.mark.parametrize("tag", DEFAULT_GRAPHS)
class TestByteIdenticalDefaults:
    def test_pernode_synchronous(self, tag):
        rngs = RngRegistry(42)
        counts = biased_counts(400, 4, 2.0)
        sim = PerNodeSynchronousSim(
            counts,
            FixedSchedule(n=400, k=4, alpha0=2.0),
            rngs.stream("sync"),
            graph=_graph(tag, 400),
        )
        result = sim.run(max_steps=4000)
        assert [
            bool(result.converged),
            int(result.winner),
            repr(result.elapsed),
            result.final_color_counts.tolist(),
        ] == GOLDEN["pernode_sync"]

    def test_baseline_dynamics(self, tag):
        rngs = RngRegistry(42)
        result = run_dynamics(
            ThreeMajority(),
            biased_counts(500, 4, 2.0),
            rngs.stream("b3m"),
            max_rounds=5000,
            graph=_graph(tag, 500),
        )
        assert [
            bool(result.converged),
            int(result.winner),
            repr(result.elapsed),
            result.final_color_counts.tolist(),
        ] == GOLDEN["three_majority"]


#: Unsharded per-node cases, all at n=2000, k=4, alpha=1.5: the fixed
#: schedule; ``wide_int64`` has more generation rows than ``int8``
#: holds; ``round_faults`` drops, straggles and churns nodes, some of
#: which rejoin at generation 0; ``sparse`` samples a random 16-regular
#: graph; ``assignment`` places the colors in blocks instead of
#: shuffling them.
PERNODE_CASES = ("assignment", "fixed", "round_faults", "sparse", "wide_int64")


def _run_pernode_case(name: str):
    n, k, alpha = 2000, 4, 1.5
    rngs = RngRegistry(31)
    counts = biased_counts(n, k, alpha)
    schedule = FixedSchedule(n=n, k=k, alpha0=alpha)
    max_steps = 4000
    options = {}
    if name == "wide_int64":
        schedule, max_steps = AlwaysTwoChoices(max_generation=130), 300
    elif name == "round_faults":
        options["round_faults"] = prepare_round_faults(
            n,
            build_round_faults(drop=0.1, churn=0.05, stragglers=0.1),
            rngs.stream("faults"),
        )
    elif name == "sparse":
        options["graph"] = build_graph("regular", n, rngs.stream("graph"), degree=16)
    elif name == "assignment":
        options["assignment"] = counts_to_assignment(counts)
    sim = PerNodeSynchronousSim(counts, schedule, rngs.stream("sync"), **options)
    result = sim.run(max_steps=max_steps, epsilon=0.05, record_trajectory=True)
    return sim, result


def pernode_record(result) -> list:
    """The pinned record of one per-node run (floats as repr)."""
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


class TestPerNodeGolden:
    """Unsharded per-node runs reproduce their committed trajectories."""

    @pytest.mark.parametrize("name", PERNODE_CASES)
    def test_matches_golden(self, name):
        sim, result = _run_pernode_case(name)
        assert pernode_record(result) == GOLDEN["pernode_unsharded"][name]
        if name == "round_faults":
            churn = sim._round_faults.models[1]
            assert churn.rejoins > 0  # the case exercises the reset path


class TestRoundSeamDefaults:
    """The round-level fault subsystem's zero-fault paths, pinned.

    ``round_faults=None`` / ``assignment=None`` / ``graph=None`` must
    consume no randomness and take the literal pre-seam code path.  The
    population scheduler and the aggregate engine gained the seam in
    the same change, so their default trajectories are pinned here the
    way ``golden_default_path.json`` pins the event engines.
    """

    def test_population_scheduler_three_state(self):
        from repro.baselines.population import PairwiseScheduler, ThreeStateMajority

        rngs = RngRegistry(42)
        result = PairwiseScheduler(ThreeStateMajority()).run(
            biased_counts(400, 2, 2.0), rngs.stream("p3"),
            graph=None, round_faults=None, assignment=None,
        )
        assert [
            bool(result.converged),
            int(result.winner),
            int(result.interactions),
            result.final_state_counts.tolist(),
        ] == GOLDEN_ROUND["population_three_state"]

    def test_population_scheduler_four_state(self):
        from repro.baselines.population import FourStateExactMajority, PairwiseScheduler

        rngs = RngRegistry(42)
        result = PairwiseScheduler(FourStateExactMajority()).run(
            biased_counts(120, 2, 1.5), rngs.stream("p4")
        )
        assert [
            bool(result.converged),
            None if result.winner is None else int(result.winner),
            int(result.interactions),
            result.final_state_counts.tolist(),
        ] == GOLDEN_ROUND["population_four_state"]

    def test_aggregate_synchronous(self):
        from repro.core.schedule import FixedSchedule
        from repro.core.synchronous import AggregateSynchronousSim

        rngs = RngRegistry(42)
        sim = AggregateSynchronousSim(
            biased_counts(600, 4, 2.0),
            FixedSchedule(n=600, k=4, alpha0=2.0),
            rngs.stream("agg"),
            round_faults=None,
        )
        result = sim.run(max_steps=4000)
        assert [
            bool(result.converged),
            int(result.winner),
            repr(result.elapsed),
            result.final_color_counts.tolist(),
        ] == GOLDEN_ROUND["aggregate_sync"]

    def test_population_target_records(self):
        spec = SweepSpec(
            target="population",
            base={"k": 2, "alpha": 2.0},
            grid={"n": [200, 300]},
            repetitions=2,
            seed=7,
        )
        records = [execute_run(config) for config in spec.expand()]
        for record in records:
            record.pop("wall_time", None)
        assert records == GOLDEN_ROUND["population_records"]


#: Consensus runs that start decided: all one color, or the ε-target
#: already met (ceil(0.4 · 400) = 160 <= 200), stopping there or running
#: on to consensus.
MULTILEADER_DECIDED_STARTS = {
    "one_color": ([400, 0, 0], {}),
    "eps_met_stop": (None, dict(epsilon=0.6, stop_at_epsilon=True)),
    "eps_met_continue": (None, dict(epsilon=0.6)),
}


class TestBatchEngineGolden:
    """Pin the event engine's default trajectories going forward."""

    def test_single_leader_batch(self):
        for tag in DEFAULT_GRAPHS:
            rngs = RngRegistry(42)
            params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
            sim = SingleLeaderSim(
                params, biased_counts(300, 3, 2.0), rngs.stream("sl"), graph=_graph(tag, 300)
            )
            result = sim.run(max_time=800.0)
            assert [
                bool(result.converged),
                int(result.winner),
                repr(result.elapsed),
                result.final_color_counts.tolist(),
                int(sim.sim.events_executed),
            ] == GOLDEN_BATCH["single_leader"]

    @pytest.mark.parametrize("tag", DEFAULT_GRAPHS)
    def test_delayed_exchange_batch(self, tag):
        rngs = RngRegistry(42)
        params = SingleLeaderParams(n=300, k=3, alpha0=2.0)
        sim = DelayedExchangeSim(
            params,
            biased_counts(300, 3, 2.0),
            rngs.stream("dx"),
            exchange_rate=2.0,
            graph=_graph(tag, 300),
        )
        result = sim.run(max_time=1200.0)
        assert [
            bool(result.converged),
            int(result.winner),
            repr(result.elapsed),
            result.final_color_counts.tolist(),
            int(sim.sim.events_executed),
        ] == GOLDEN_BATCH["delayed"]

    def test_multileader_batch(self):
        for tag in DEFAULT_GRAPHS:
            rngs = RngRegistry(42)
            params = MultiLeaderParams(n=400, k=3, alpha0=2.0)
            result = run_multileader(
                params,
                biased_counts(400, 3, 2.0),
                rngs.stream("ml"),
                clustering_max_time=300.0,
                max_time=1500.0,
                graph=_graph(tag, 400),
            )
            assert [
                bool(result.converged),
                int(result.winner),
                repr(result.elapsed),
                result.final_color_counts.tolist(),
            ] == GOLDEN_BATCH["multileader"]
        for name, (counts, run_kwargs) in MULTILEADER_DECIDED_STARTS.items():
            result = run_multileader(
                MultiLeaderParams(n=400, k=3, alpha0=2.0),
                biased_counts(400, 3, 2.0) if counts is None else counts,
                RngRegistry(42).stream("ml"),
                clustering_max_time=300.0,
                max_time=1500.0,
                **run_kwargs,
            )
            assert [
                bool(result.converged),
                repr(result.elapsed),
                repr(result.epsilon_convergence_time),
                int(result.info["events"]),
            ] == GOLDEN["multileader_decided_starts"][name], name

    def test_sweep_records_batch(self):
        spec = SweepSpec(
            target="single_leader",
            base={"k": 3, "alpha": 2.0},
            grid={"n": [200, 300]},
            repetitions=2,
            seed=7,
        )
        records = [execute_run(config) for config in spec.expand()]
        for record in records:
            record.pop("wall_time", None)
        assert records == GOLDEN_BATCH["sweep_records"]
