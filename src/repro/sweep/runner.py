"""Sweep execution: serial or supervised process-pool fan-out with run caching.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`,
satisfies every config it can from the :class:`~repro.sweep.cache.RunCache`,
and executes only the misses — serially in-process, or in chunks on a
process pool through :func:`~repro.sweep.supervisor.run_supervised`,
the one pool path. Each fresh record is stored in the cache as soon as
it is settled: right after its run on the serial path, and as its chunk
comes back on the pool, while the other chunks still run (also for the
finished runs of a crashed, timed-out or interrupted chunk). Three
invariants make the fan-out safe:

* **Picklable work units** — a worker receives only the config *dict*
  and rebuilds everything (target function, RNG) by name inside
  :func:`execute_run`, so no simulator state, closure, or generator
  crosses the process boundary.
* **Order-independent randomness** — each run's generator is
  ``RngRegistry(seed).stream(config.stream)``; the substream name is a
  pure function of the config, so a run draws identical randomness
  whether it executes first or last, in-process or on worker 3.
* **Deterministic collection** — records are placed by config index,
  never completion order, so serial and parallel sweeps aggregate to
  byte-identical tables.

The same module hosts the experiment-level plumbing used by
``repro reproduce``: :func:`run_experiments` fans whole registry
experiments out across workers and caches their rendered
:class:`~repro.experiments.common.ExperimentResult` by
``(experiment, quick, seed, library version)``.

Examples
--------
>>> from repro.sweep.spec import SweepSpec
>>> spec = SweepSpec(target="synchronous", base={"k": 2, "alpha": 2.0},
...                  grid={"n": [200, 400]}, repetitions=2, seed=3)
>>> report = run_sweep(spec)           # no cache, serial
>>> (report.executed, report.cached, len(report.records))
(4, 0, 4)
>>> all(r["plurality_won"] for r in report.records)
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError
from repro.sweep.cache import RunCache
from repro.sweep.spec import RunConfig, SweepSpec
from repro.sweep.targets import (
    get_target,
    target_metricable,
    target_traceable,
    validate_target_params,
)

__all__ = [
    "execute_run",
    "run_sweep",
    "SweepReport",
    "run_experiments",
    "experiment_config",
]


def derive_rng(config: Mapping[str, Any]) -> np.random.Generator:
    """The generator a config's run draws from (config-content keyed)."""
    run = config if isinstance(config, RunConfig) else RunConfig.from_dict(config)
    return RngRegistry(run.seed).stream(run.stream)


def execute_run(
    config: Mapping[str, Any],
    trace_path: str | None = None,
    metrics_path: str | None = None,
) -> dict:
    """Execute one run config and return its record.

    Module-level and dict-in/dict-out, so it can be shipped to a
    process-pool worker as-is.  ``trace_path``, when given, streams the
    run's protocol-level trace to that file through a
    :class:`~repro.engine.tracing.JsonlTracer`; the target must declare
    a ``tracer`` keyword (all built-ins do — checked via
    :func:`~repro.sweep.targets.target_traceable`).  ``metrics_path``
    collects the run's engine-level metrics into a snapshot file
    (a per-worker sidecar the parent merges) for targets that declare a
    ``metrics`` keyword (:func:`~repro.sweep.targets.target_metricable`);
    non-metricable targets simply skip the sidecar.
    """
    run = config if isinstance(config, RunConfig) else RunConfig.from_dict(config)
    target = get_target(run.target)
    kwargs: dict[str, Any] = {}
    registry = None
    if metrics_path is not None and target_metricable(run.target):
        from repro.engine.metrics import MetricsRegistry

        registry = MetricsRegistry()
        kwargs["metrics"] = registry
    started = time.perf_counter()
    if trace_path is None:
        record = dict(target(run.params_dict, derive_rng(run), **kwargs))
    else:
        if not target_traceable(run.target):
            raise ConfigurationError(
                f"target {run.target!r} does not accept a tracer; "
                "it cannot be run with --trace"
            )
        from repro.engine.tracing import JsonlTracer

        with JsonlTracer(trace_path) as tracer:
            record = dict(
                target(run.params_dict, derive_rng(run), tracer=tracer, **kwargs)
            )
        record.setdefault("trace_records", tracer.records_written)
    record.setdefault("wall_time", time.perf_counter() - started)
    if registry is not None:
        registry.write(metrics_path)
    return record


@dataclass
class SweepReport:
    """Everything one :func:`run_sweep` invocation produced.

    ``records`` is aligned with ``configs`` (spec expansion order), so
    downstream aggregation is independent of execution order. A config
    that fails on the pool (see :mod:`repro.sweep.supervisor`) leaves
    ``None`` at its slot and a structured entry in ``failures``; the
    serial in-process path raises instead, so it never produces
    ``None`` records.
    """

    spec: SweepSpec
    configs: list[RunConfig]
    records: list[dict | None]
    executed: int = 0
    cached: int = 0
    wall_time: float = 0.0
    workers: int = 1
    failures: list = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    resumed: int = 0

    @property
    def succeeded(self) -> bool:
        """True when every config produced a record."""
        return not self.failures

    def summary(self) -> str:
        """One-line accounting of the sweep."""
        line = (
            f"sweep {self.spec.name}: {len(self.configs)} runs "
            f"({self.executed} executed, {self.cached} cached) "
            f"on {self.workers} worker(s) in {self.wall_time:.2f}s"
        )
        extras = []
        if self.resumed:
            extras.append(f"{self.resumed} resumed")
        if self.retries:
            extras.append(f"{self.retries} retried")
        if self.failures:
            extras.append(f"{len(self.failures)} FAILED")
        if extras:
            line += f" [{', '.join(extras)}]"
        return line


def _resolve_workers(workers: int | None) -> int:
    import os

    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    return workers


def run_sweep(
    spec: SweepSpec,
    *,
    cache: RunCache | None = None,
    workers: int = 1,
    echo: Callable[[str], None] | None = None,
    trace_dir: str | None = None,
    metrics=None,
    supervisor=None,
    state_dir=None,
    resume: bool = False,
) -> SweepReport:
    """Run every config of ``spec`` that the cache cannot satisfy.

    Parameters
    ----------
    spec:
        The sweep to run.
    cache:
        Optional run cache; hits skip execution entirely and each
        fresh record is stored back as soon as its run (serial) or its
        chunk (pool) settles, so a sweep that raises or is interrupted
        keeps what it finished. ``None`` disables caching.
    workers:
        ``1`` runs in-process (no pool, no pickling) unless a
        ``supervisor`` is given; ``> 1`` fans the cache misses out over
        that many supervised worker processes; ``0`` means one worker
        per CPU.
    echo:
        Optional progress sink (the CLI passes a stderr printer).
    trace_dir:
        Directory for per-run JSONL trace files
        (``NNNN-<target>-<digest12>.jsonl``, config-expansion order).
        Traced sweeps bypass the cache entirely — a cache hit would
        leave no trace on disk, and the trace path must not perturb the
        content-addressed run digest.
    metrics:
        Optional :class:`~repro.engine.metrics.MetricsRegistry`. The
        parent publishes sweep-level accounting (cache hits/misses,
        corrupt entries, runs executed/cached, per-run wall-time
        histogram, worker gauge); for metricable targets each executed
        run additionally collects engine-level metrics into a per-run
        sidecar snapshot that is merged back here — so engine counters
        survive the process-pool boundary. Cached runs contribute no
        engine metrics (they never executed).
    supervisor:
        Optional :class:`~repro.sweep.supervisor.SupervisorPolicy`.
        Every pool run is supervised — per-run wall-clock timeout,
        bounded retries with deterministic backoff, and failure
        isolation: a config that exhausts its budget leaves ``None`` in
        ``records`` and a :class:`~repro.sweep.supervisor.RunFailure`
        in ``report.failures`` instead of aborting the sweep. With
        ``None`` (the default), ``workers > 1`` runs
        ``SupervisorPolicy(max_retries=0)`` and ``workers=1`` runs the
        misses in-process, where the first raising run aborts the
        sweep. A policy always executes on a process pool (even at
        ``workers=1``) — crash and hang isolation require a process
        boundary.
    state_dir:
        Directory for the sweep's ``manifest.json`` checkpoint (see
        :class:`~repro.sweep.supervisor.SweepManifest`). Implies a
        default supervisor policy when none is given.
    resume:
        Continue an interrupted sweep from ``state_dir``: configs the
        manifest marks ``done`` are restored from it (counted in
        ``report.resumed``, not ``executed``/``cached``) and only the
        remainder executes. Previously failed configs get a fresh
        retry budget.
    """
    # Deferred so that importing this module without sweeping stays cheap.
    from repro.sweep.supervisor import SupervisorPolicy, SweepManifest, run_supervised

    workers = _resolve_workers(workers)
    started = time.perf_counter()
    configs = spec.expand()
    # Fail-fast: validate every grid point before launching any run, so
    # a bad combination (typo'd axis, multileader + init='clustered')
    # aborts upfront instead of mid-run on a worker.  Repetitions share
    # their parameters, so each distinct point is validated once.
    for target, params in dict.fromkeys((c.target, c.params) for c in configs):
        validate_target_params(target, dict(params))

    if metrics is not None and not metrics.enabled:
        metrics = None
    corrupt_before = cache.corrupt_hits if cache is not None else 0
    metrics_dir: str | None = None
    metrics_paths: list[str | None] = [None] * len(configs)
    if metrics is not None and target_metricable(spec.target):
        import tempfile

        metrics_dir = tempfile.mkdtemp(prefix="repro-sweep-metrics-")
        metrics_paths = [
            f"{metrics_dir}/run-{index:04d}.json" for index in range(len(configs))
        ]

    trace_paths: list[str | None] = [None] * len(configs)
    if trace_dir is not None:
        from pathlib import Path

        if not target_traceable(spec.target):
            raise ConfigurationError(
                f"target {spec.target!r} does not accept a tracer; "
                "it cannot be swept with --trace"
            )
        root = Path(trace_dir)
        root.mkdir(parents=True, exist_ok=True)
        trace_paths = [
            str(root / f"{index:04d}-{config.target}-{config.digest[:12]}.jsonl")
            for index, config in enumerate(configs)
        ]

    manifest = None
    if state_dir is not None or resume:
        if state_dir is None:
            raise ConfigurationError("resume requires a state directory")
        manifest = SweepManifest.open(state_dir, spec, resume=resume)
        if supervisor is None:
            supervisor = SupervisorPolicy()

    records: list[dict | None] = [None] * len(configs)
    restored: set[int] = set()
    if manifest is not None and resume:
        for index in manifest.done_indices():
            record = manifest.record(index)
            if record is not None:
                records[index] = dict(record)
                restored.add(index)
        if echo is not None and restored:
            echo(f"[sweep] resumed {len(restored)} completed run(s) from manifest")

    misses: list[int] = []
    for index, config in enumerate(configs):
        if index in restored:
            continue
        hit = (
            cache.get(config.as_dict())
            if cache is not None and trace_dir is None
            else None
        )
        if hit is not None:
            records[index] = hit
        else:
            misses.append(index)
    cached = len(configs) - len(misses) - len(restored)
    if echo is not None and cache is not None:
        echo(f"[sweep] {cached} cached, {len(misses)} to run")

    store = None
    if cache is not None and trace_dir is None:

        def store(index: int, record: dict) -> None:
            cache.put(configs[index].as_dict(), record)

    outcome = None
    if misses and (supervisor is not None or workers > 1):
        outcome = run_supervised(
            configs,
            misses,
            supervisor or SupervisorPolicy(max_retries=0),
            workers=workers,
            trace_paths=trace_paths,
            metrics_paths=metrics_paths,
            echo=echo,
            manifest=manifest,
            store=store,
        )
        for index, record in outcome.records.items():
            records[index] = record
    else:
        for index in misses:
            records[index] = execute_run(
                configs[index], trace_paths[index], metrics_paths[index]
            )
            if store is not None:
                store(index, records[index])

    if metrics is not None:
        _harvest_sweep_metrics(
            metrics,
            records=records,
            misses=misses,
            cached=cached,
            workers=workers,
            cache=cache,
            cache_active=cache is not None and trace_dir is None,
            corrupt_before=corrupt_before,
            metrics_dir=metrics_dir,
            supervision=outcome,
            resumed=len(restored) if resume else None,
        )

    return SweepReport(
        spec=spec,
        configs=configs,
        records=[dict(r) if r is not None else None for r in records],
        executed=len(misses),
        cached=cached,
        wall_time=time.perf_counter() - started,
        workers=workers,
        failures=list(outcome.failures) if outcome is not None else [],
        retries=outcome.retries if outcome is not None else 0,
        timeouts=outcome.timeouts if outcome is not None else 0,
        resumed=len(restored),
    )


def _harvest_sweep_metrics(
    metrics,
    *,
    records: Sequence[dict | None],
    misses: Sequence[int],
    cached: int,
    workers: int,
    cache: RunCache | None,
    cache_active: bool,
    corrupt_before: int,
    metrics_dir: str | None,
    supervision=None,
    resumed: int | None = None,
) -> None:
    """Publish sweep-level accounting and fold worker sidecars back in."""
    import os
    import shutil

    from repro.engine.metrics import TIME_BUCKETS, load_snapshot

    metrics.gauge("sweep.workers").set(workers)
    metrics.counter("sweep.runs_executed").inc(len(misses))
    metrics.counter("sweep.runs_cached").inc(cached)
    if resumed is not None:
        metrics.counter("sweep.runs_resumed").inc(resumed)
    if supervision is not None:
        metrics.counter("sweep.retries").inc(supervision.retries)
        metrics.counter("sweep.timeouts").inc(supervision.timeouts)
        metrics.counter("sweep.failures").inc(len(supervision.failures))
        if supervision.pool_rebuilds:
            metrics.counter("sweep.pool_rebuilds").inc(supervision.pool_rebuilds)
    if cache_active and cache is not None:
        metrics.counter("sweep.cache.hits").inc(cached)
        metrics.counter("sweep.cache.misses").inc(len(misses))
        metrics.counter("sweep.cache.corrupt").inc(cache.corrupt_hits - corrupt_before)
    histogram = metrics.histogram("sweep.run_seconds", TIME_BUCKETS)
    for index in misses:
        record = records[index]
        if record is not None and record.get("wall_time") is not None:
            histogram.observe(float(record["wall_time"]))
    if metrics_dir is None:
        return
    try:
        for name in sorted(os.listdir(metrics_dir)):
            try:
                metrics.merge_snapshot(load_snapshot(os.path.join(metrics_dir, name)))
            except Exception:  # pragma: no cover - partial sidecar
                pass
    finally:
        shutil.rmtree(metrics_dir, ignore_errors=True)


# --------------------------------------------------------------------------
# Experiment-level orchestration (the `repro reproduce` path).


def experiment_config(name: str, *, quick: bool, seed: int) -> dict:
    """Cache config identifying one registry experiment invocation.

    The library version participates in the digest so a code upgrade
    naturally invalidates stale experiment tables.
    """
    import repro

    return {
        "kind": "experiment",
        "experiment": name,
        "quick": bool(quick),
        "seed": int(seed),
        "version": repro.__version__,
    }


def _execute_experiment(item: tuple[str, bool, int]) -> dict:
    """Worker entry: run one registry experiment, return its dict form."""
    from repro.experiments.registry import run_experiment

    name, quick, seed = item
    return run_experiment(name, quick=quick, seed=seed).to_dict()


@dataclass
class ExperimentRun:
    """One experiment's outcome within a ``reproduce`` invocation."""

    name: str
    result: Any  # ExperimentResult (deferred import keeps layers acyclic)
    cached: bool = False


def run_experiments(
    names: Sequence[str],
    *,
    quick: bool = True,
    seed: int = 0,
    cache: RunCache | None = None,
    workers: int = 1,
    echo: Callable[[str], None] | None = None,
) -> list[ExperimentRun]:
    """Run registry experiments, optionally cached and in parallel.

    Results come back in ``names`` order regardless of which worker
    finished first, and cache hits skip the experiment entirely.
    """
    from repro.experiments.common import ExperimentResult

    workers = _resolve_workers(workers)
    outcomes: list[ExperimentRun | None] = [None] * len(names)
    misses: list[int] = []
    for index, name in enumerate(names):
        hit = (
            cache.get(experiment_config(name, quick=quick, seed=seed))
            if cache is not None
            else None
        )
        if hit is not None:
            outcomes[index] = ExperimentRun(
                name=name, result=ExperimentResult.from_dict(hit), cached=True
            )
        else:
            misses.append(index)

    items = [(names[i], quick, seed) for i in misses]
    if echo is not None:
        for index in misses:
            echo(f"[repro] running {names[index]} ...")
    if items and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads: Iterable[dict] = pool.map(_execute_experiment, items)
    else:
        payloads = map(_execute_experiment, items)
    for index, payload in zip(misses, payloads):
        if cache is not None:
            cache.put(experiment_config(names[index], quick=quick, seed=seed), payload)
        outcomes[index] = ExperimentRun(
            name=names[index], result=ExperimentResult.from_dict(payload), cached=False
        )
    return [outcome for outcome in outcomes if outcome is not None]
