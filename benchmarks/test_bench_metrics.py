"""Runtime-metrics layer report.

Regenerates ``benchmarks/output/metrics.md``: a shards=4 synchronous
run's ``shard.*`` instruments (barrier-wait histogram, controller round
latency) and a cold→warm cached sweep's hit/miss counters, all rendered
through the same ``metrics-report`` pipeline the CLI uses.  The
enabled-vs-disabled overhead is gated elsewhere: deterministically in
``tests/engine/test_metrics_call_counts.py`` and by wall clock in the
``metrics-smoke`` CI job.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow  # experiment-scale wall-clock

from repro.analysis.metrics_report import metrics_report
from repro.core.schedule import FixedSchedule
from repro.engine.metrics import MetricsRegistry
from repro.engine.rng import RngRegistry
from repro.shard import run_sharded_synchronous
from repro.sweep.cache import RunCache
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.workloads import biased_counts


def _sharded_snapshot() -> dict:
    metrics = MetricsRegistry()
    n = 100_000
    run_sharded_synchronous(
        biased_counts(n, 4, 1.5),
        FixedSchedule(n=n, k=4, alpha0=1.5),
        RngRegistry(7).stream("bench-metrics"),
        shards=4,
        engine="pernode",
        metrics=metrics,
    )
    return metrics.snapshot()


def _sweep_snapshots(tmp_path: Path) -> tuple[dict, dict]:
    spec = SweepSpec(
        target="synchronous",
        base={"k": 2, "alpha": 2.0},
        grid={"n": [2_000, 4_000]},
        repetitions=2,
        seed=3,
    )
    cache = RunCache(tmp_path / "runs")
    cold = MetricsRegistry()
    run_sweep(spec, cache=cache, metrics=cold)
    warm = MetricsRegistry()
    run_sweep(spec, cache=cache, metrics=warm)
    return cold.snapshot(), warm.snapshot()


def test_bench_metrics(output_dir: Path, tmp_path: Path):
    shard_snapshot = _sharded_snapshot()
    cold_snapshot, warm_snapshot = _sweep_snapshots(tmp_path)

    shard_path = tmp_path / "shard.json"
    cold_path = tmp_path / "cold.json"
    warm_path = tmp_path / "warm.json"
    for path, snapshot in (
        (shard_path, shard_snapshot),
        (cold_path, cold_snapshot),
        (warm_path, warm_snapshot),
    ):
        path.write_text(json.dumps(snapshot, sort_keys=True, indent=2) + "\n")

    shard_report = metrics_report([shard_path])
    warm_vs_cold = metrics_report([warm_path], compare=cold_path)

    lines = [
        f"# runtime metrics ({os.cpu_count() or 1} core(s))",
        "",
        "## shards=4 synchronous run (n=100,000, per-node engine)",
        "",
        shard_report.render_markdown(),
        "",
        "## cached sweep, warm pass vs cold baseline",
        "",
        warm_vs_cold.render_markdown(),
        "",
    ]
    (output_dir / "metrics.md").write_text("\n".join(lines))

    # Sanity: the report carries what the acceptance criteria name.
    assert shard_snapshot["histograms"]["shard.barrier_wait_seconds"]["count"] > 0
    assert cold_snapshot["counters"]["sweep.cache.misses"] == 4
    assert warm_snapshot["counters"]["sweep.cache.hits"] == 4
