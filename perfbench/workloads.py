"""The benchmark's four workloads, driven through the program's public entry points.

Each workload turns a seed into inputs (``inputs``), builds what a
repetition needs outside the timed region (``prepare``), and runs one
timed repetition (``run``). ``run(state, traced=False)`` is the
end-to-end path: no metrics registry, no wrappers. ``run(state,
traced=True)`` passes a :class:`~repro.engine.metrics.MetricsRegistry`
and records spans around the calls into each layer, from this file,
without changing the program.

``prepare`` also takes a ``replica`` number below the workload's
``replicas``: the single-run workloads draw each replica's trajectory
from its own substream of the seed, so a run covers several trajectories
instead of one. Two repetitions of one replica re-run the same inputs,
so their outcome must repeat exactly; ``run.py`` checks that.
``host_probe`` says whether ``run.py`` may sample the host's speed from a
timer signal while a repetition runs: only where the workload runs in
this one process.
"""

from __future__ import annotations

import shutil
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.sweep.targets as targets
from repro.engine.metrics import MetricsRegistry
from repro.engine.rng import RngRegistry
from repro.sweep.aggregate import aggregate_table
from repro.sweep.cache import RunCache
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

#: Process-pool size of the sweep workload and shard count of the
#: sharded workload: the benchmark is sized for a 2-CPU machine.
WORKERS = 2


@dataclass
class Rep:
    """One timed repetition of a workload.

    ``unit_wall_s`` is the part of ``wall_s`` that ``ms_per_unit`` and
    ``runs_per_s`` divide: the whole run for single-run workloads, the
    cold pass for the sweep. ``checks`` counts the correctness checks
    made; ``failures`` holds one reason per failed check.
    """

    wall_s: float
    unit_wall_s: float
    units: float
    runs: int
    outcome: Any
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    metrics: MetricsRegistry | None = None
    checks: int = 1


def _consensus_failures(record: dict, *, epsilon: bool = False) -> list[str]:
    """The check on one run's record: ``[]`` if correct, else one reason."""
    problems = []
    if not record.get("converged"):
        problems.append("no consensus within the time budget")
    if not record.get("plurality_won"):
        problems.append(f"non-plurality winner {record.get('winner')}")
    if epsilon and record.get("epsilon_time") is None:
        problems.append("no epsilon-consensus within the time budget")
    return ["; ".join(problems)] if problems else []


@contextmanager
def _replaced(module, name: str, replacement):
    """Rebind ``module.name`` for the duration of a traced pass."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


class _SingleRun:
    """A workload that is one call of one sweep target per repetition."""

    name: str
    target: str
    replicas: int
    host_probe: bool

    def prepare(self, inputs: dict, workdir: Path, replica: int) -> dict:
        return {
            **inputs,
            "target": targets.get_target(self.target),
            "rng": RngRegistry(inputs["seed"]).stream(f"perfbench/{self.name}/{replica}"),
        }


class AsyncKn(_SingleRun):
    """Algorithms 2+3 on K_n through the ``single_leader`` target."""

    name = "async_kn"
    target = "single_leader"
    replicas = 5
    host_probe = True

    def inputs(self, seed: int, tiny: bool) -> dict:
        return {"seed": seed, "params": {"n": 500 if tiny else 3000, "k": 4, "alpha": 2.0}}

    def run(self, state: dict, *, traced: bool) -> Rep:
        metrics = MetricsRegistry() if traced else None
        layers: dict[str, float] = {}
        spans = (
            _replaced(targets, "SingleLeaderSim", self._timed_sim(layers))
            if traced
            else nullcontext()
        )
        with spans:
            start = perf_counter()
            record = state["target"](state["params"], state["rng"], metrics=metrics)
            wall = perf_counter() - start
        units = record["elapsed_units"]
        if traced:
            counters = metrics.snapshot()["counters"]
            ticks = counters.get("protocol.ticks_total", 0)
            layers["engine.events_per_s"] = (
                counters.get("engine.events_executed", 0) / layers["core.sim_run_s"]
            )
            layers["protocol.good_tick_ratio"] = counters.get("protocol.ticks_good", 0) / ticks
            layers["protocol.ticks_per_unit"] = ticks / units
        return Rep(wall, wall, units, 1, record, _consensus_failures(record), layers, metrics)

    @staticmethod
    def _timed_sim(layers: dict):
        """A ``SingleLeaderSim`` that records construct and run spans."""
        base = targets.SingleLeaderSim

        class TimedSingleLeaderSim(base):
            def __init__(self, *args, **kwargs):
                start = perf_counter()
                super().__init__(*args, **kwargs)
                layers["core.sim_construct_s"] = perf_counter() - start

            def run(self, *args, **kwargs):
                start = perf_counter()
                try:
                    return super().run(*args, **kwargs)
                finally:
                    layers["core.sim_run_s"] = perf_counter() - start

        return TimedSingleLeaderSim


class AsyncMultileaderFaulty(_SingleRun):
    """Section 4's clustering + consensus at the Theorem 26 config, with event-seam faults."""

    name = "async_multileader_faulty"
    target = "multileader"
    replicas = 5
    host_probe = True

    def inputs(self, seed: int, tiny: bool) -> dict:
        params = {
            "n": 300 if tiny else 600,
            "k": 3,
            "alpha": 2.0,
            "epsilon": 0.02,
            "drop": 0.1,
            "stragglers": 0.1,
        }
        return {"seed": seed, "params": params}

    def run(self, state: dict, *, traced: bool) -> Rep:
        metrics = MetricsRegistry() if traced else None
        layers: dict[str, float] = {}
        spans = (
            _replaced(targets, "run_multileader", self._timed_pipeline(layers))
            if traced
            else nullcontext()
        )
        with spans:
            start = perf_counter()
            record = state["target"](state["params"], state["rng"], metrics=metrics)
            wall = perf_counter() - start
        failures = _consensus_failures(record, epsilon=True)
        return Rep(wall, wall, record["elapsed_units"], 1, record, failures, layers, metrics)

    @staticmethod
    def _timed_pipeline(layers: dict):
        """``run_multileader`` with its ``prepare`` seam timed.

        ``prepare()`` runs once before each phase simulator is built, so
        its two calls split the run into the clustering and consensus
        phases; the time inside it is the fault wiring's set-up.
        """
        original = targets.run_multileader

        def run_multileader(params, counts, rng, *, prepare, **kwargs):
            phase_starts: list[float] = []
            layers["scenarios.faults_prepare_s"] = 0.0

            def timed_prepare():
                start = perf_counter()
                phase_starts.append(start)
                simulator = prepare()
                layers["scenarios.faults_prepare_s"] += perf_counter() - start
                return simulator

            result = original(params, counts, rng, prepare=timed_prepare, **kwargs)
            end = perf_counter()
            layers["multileader.clustering_s"] = phase_starts[1] - phase_starts[0]
            layers["multileader.consensus_s"] = end - phase_starts[1]
            layers["multileader.clustering_units"] = (
                result.info["clustering_time"] / params.time_unit
            )
            layers["multileader.clusters"] = result.info["clusters"]
            return result

        return run_multileader


class SyncPernodeSharded(_SingleRun):
    """Algorithm 1, per-node engine, sharded over worker processes."""

    name = "sync_pernode_sharded"
    target = "synchronous"
    #: Every trajectory takes the same 31 rounds, so two replicas suffice.
    replicas = 2
    #: Shard workers share the CPUs with the probe, so it would measure them.
    host_probe = False

    def inputs(self, seed: int, tiny: bool) -> dict:
        params = {
            "n": 20_000 if tiny else 1_000_000,
            "k": 4,
            "alpha": 1.5,
            "engine": "pernode",
            "shards": WORKERS,
        }
        return {"seed": seed, "params": params}

    def run(self, state: dict, *, traced: bool) -> Rep:
        metrics = MetricsRegistry() if traced else None
        start = perf_counter()
        record = state["target"](state["params"], state["rng"], metrics=metrics)
        wall = perf_counter() - start
        rounds = record["elapsed"]
        layers: dict[str, float] = {}
        if traced:
            histograms = metrics.snapshot()["histograms"]
            round_s = histograms["shard.round_seconds"]["sum"]
            wait_s = histograms["shard.barrier_wait_seconds"]["sum"]
            layers["shard.round_s"] = round_s
            layers["shard.barrier_wait_s"] = wait_s
            layers["shard.barrier_wait_frac"] = wait_s / (WORKERS * round_s)
            layers["shard.startup_s"] = wall - round_s
            layers["sync.node_updates_per_s"] = state["params"]["n"] * rounds / wall
        return Rep(wall, wall, rounds, 1, record, _consensus_failures(record), layers, metrics)


class _TimedCache:
    """A duck-typed :class:`RunCache` that times ``get`` and ``put``.

    ``first_put`` and ``last_put`` mark when the stores of one sweep
    began and ended; the caller resets ``first_put`` to ``None``.
    """

    def __init__(self, cache: RunCache):
        self._cache = cache
        self.lookup_s = 0.0
        self.store_s = 0.0
        self.first_put: float | None = None
        self.last_put = 0.0

    @property
    def corrupt_hits(self) -> int:
        return self._cache.corrupt_hits

    def get(self, config):
        start = perf_counter()
        try:
            return self._cache.get(config)
        finally:
            self.lookup_s += perf_counter() - start

    def put(self, config, record):
        start = perf_counter()
        if self.first_put is None:
            self.first_put = start
        try:
            return self._cache.put(config, record)
        finally:
            self.last_put = perf_counter()
            self.store_s += self.last_put - start


class SweepSmallRuns:
    """Many ~1 ms runs through ``run_sweep``: a cold pass, a warm pass, then the tables."""

    name = "sweep_small_runs"
    #: 1200 runs already average over trajectories: every replica is the
    #: same sweep.
    replicas = 1
    #: Pool workers share the CPUs with the probe, so it would measure them.
    host_probe = False

    #: Targets and their shared parameters; sizes where the plurality
    #: wins every run, so a failure means the program is wrong.
    SPECS = (
        ("synchronous", {"n": 1000, "k": 3}),
        ("three_majority", {"n": 1000, "k": 3}),
        ("population", {"n": 200, "k": 2}),
    )

    def inputs(self, seed: int, tiny: bool) -> dict:
        repetitions = 2 if tiny else 100
        specs = [
            SweepSpec(
                target=target,
                base=base,
                grid={"alpha": [2.0, 3.0], "drop": [0.0, 0.1]},
                repetitions=repetitions,
                seed=seed,
                name=f"perfbench-{target}",
            )
            for target, base in self.SPECS
        ]
        return {"seed": seed, "specs": specs}

    def prepare(self, inputs: dict, workdir: Path, replica: int) -> dict:
        root = workdir / "sweep-cache"
        shutil.rmtree(root, ignore_errors=True)
        return {**inputs, "cache": RunCache(root)}

    def run(self, state: dict, *, traced: bool) -> Rep:
        specs = state["specs"]
        cache = _TimedCache(state["cache"]) if traced else state["cache"]
        metrics = MetricsRegistry() if traced else None
        layers = dict.fromkeys(
            (
                "sweep.expand_s",
                "sweep.lookup_s",
                "sweep.store_s",
                "sweep.execute_s",
                "sweep.harvest_s",
            ),
            0.0,
        )

        def sweep_pass():
            return [self._sweep(spec, cache, metrics, layers, traced) for spec in specs]

        start = perf_counter()
        cold = sweep_pass()
        cold_end = perf_counter()
        warm = sweep_pass()
        warm_end = perf_counter()
        cold_tables = [aggregate_table(r.spec, r.records).render() for r in cold]
        warm_tables = [aggregate_table(r.spec, r.records).render() for r in warm]
        end = perf_counter()

        failures = []
        for report in cold:
            for record in report.records:
                failures += _consensus_failures(record)
        executed_warm = sum(report.executed for report in warm)
        if executed_warm:
            failures.append(f"warm pass executed {executed_warm} runs instead of 0")
        if warm_tables != cold_tables:
            failures.append("warm-pass tables differ from cold-pass tables")

        cold_s = cold_end - start
        runs = sum(report.executed for report in cold)
        units = sum(record["elapsed"] for report in cold for record in report.records)
        if traced:
            busy = [record["wall_time"] for report in cold for record in report.records]
            layers["sweep.aggregate_s"] = end - warm_end
            layers["sweep.run_busy_s"] = sum(busy)
            layers["sweep.worker_busy_frac"] = sum(busy) / (WORKERS * layers["sweep.execute_s"])
            quantiles = statistics.quantiles(busy, n=100, method="inclusive")
            layers["sweep.run_busy_ms_p50"] = 1000 * statistics.median(busy)
            layers["sweep.run_busy_ms_p99"] = 1000 * quantiles[98]
            counters = metrics.snapshot()["counters"]
            hits = counters.get("sweep.cache.hits", 0)
            layers["sweep.cache.hit_ratio"] = hits / (hits + counters.get("sweep.cache.misses", 0))
            layers["sweep.cache.bytes"] = state["cache"].stats().bytes
            layers["sweep.cached_runs_per_s"] = (
                sum(len(report.records) for report in warm) / (warm_end - cold_end)
            )
        checks = sum(len(report.records) for report in cold) + 2
        return Rep(
            end - start, cold_s, units, runs, cold_tables, failures, layers, metrics, checks
        )

    @staticmethod
    def _sweep(spec, cache, metrics, layers, traced):
        """One ``run_sweep`` call; when traced, split its wall time into spans.

        The runner echoes "N cached, M to run" once expansion, validation
        and cache lookups are done and before any run executes. It stores
        the fresh records after the pool has finished them all, then
        harvests the metrics registry. So execution runs from the echo to
        the first store (nothing in a warm pass), and the harvest from
        the last store (or the echo) to the return.
        """
        echoed: list[float] = []
        lookup_before = cache.lookup_s if traced else 0.0
        store_before = cache.store_s if traced else 0.0
        if traced:
            cache.first_put = None
        start = perf_counter()
        report = run_sweep(
            spec,
            cache=cache,
            workers=WORKERS,
            echo=(lambda line: echoed.append(perf_counter())) if traced else None,
            metrics=metrics,
        )
        end = perf_counter()
        if traced:
            lookup = cache.lookup_s - lookup_before
            stored = cache.first_put is not None
            layers["sweep.expand_s"] += echoed[0] - start - lookup
            layers["sweep.lookup_s"] += lookup
            layers["sweep.store_s"] += cache.store_s - store_before
            layers["sweep.execute_s"] += (cache.first_put if stored else echoed[0]) - echoed[0]
            layers["sweep.harvest_s"] += end - (cache.last_put if stored else echoed[0])
        return report


WORKLOADS = {
    workload.name: workload
    for workload in (AsyncKn(), AsyncMultileaderFaulty(), SweepSmallRuns(), SyncPernodeSharded())
}
