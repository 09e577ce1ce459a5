"""Benchmark harness plumbing.

Every ``test_bench_*`` module regenerates one paper artifact (table or
figure) through the experiment registry, times it with pytest-benchmark,
and writes the rendered tables to ``benchmarks/output/<id>.md`` so the
rows the paper reports can be inspected after a run:

    pytest benchmarks/ --benchmark-only

Experiments run their *quick* configuration here; the full
configurations are regenerated with
``python -m repro reproduce --full --out <file>``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import run_experiment

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def run_and_save(benchmark, output_dir):
    """Run one registered experiment exactly once, timed, and save it."""

    def runner(name: str, *, seed: int = 0) -> ExperimentResult:
        result = benchmark.pedantic(
            lambda: run_experiment(name, quick=True, seed=seed),
            rounds=1,
            iterations=1,
        )
        path = output_dir / f"{name}.md"
        path.write_text(result.render_markdown() + "\n")
        return result

    return runner

