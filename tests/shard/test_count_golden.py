"""Sharded count-engine runs (``shards > 1``), pinned byte for byte.

``golden_sharded_count.json`` holds one sharded three-majority run and
one sharded aggregate synchronous run, each with epsilon tracking, a
recorded trajectory, a :class:`~repro.engine.tracing.TraceRecorder` and
a :class:`~repro.engine.metrics.MetricsRegistry`. The pinned fields are
the result, the trajectory, every trace record and the counters outside
the ``shard.*`` runtime namespace, so a refactor of the sharded round
loop cannot move a record, a trace line or a counter unnoticed.

Regenerate only for an intended trajectory change::

    PYTHONPATH=src python tests/shard/test_count_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.three_majority import ThreeMajority
from repro.core.schedule import FixedSchedule
from repro.engine.metrics import MetricsRegistry
from repro.engine.rng import RngRegistry
from repro.engine.tracing import TraceRecorder
from repro.shard import run_sharded_dynamics, run_sharded_synchronous
from repro.workloads import biased_counts

GOLDEN_PATH = Path(__file__).parent / "golden_sharded_count.json"


def _dynamics_run(**kwargs):
    return run_sharded_dynamics(
        ThreeMajority(),
        biased_counts(2000, 3, 1.5),
        RngRegistry(3).stream("count-golden/dynamics"),
        shards=2,
        epsilon=0.05,
        record_trajectory=True,
        **kwargs,
    )


def _aggregate_run(**kwargs):
    return run_sharded_synchronous(
        biased_counts(2000, 4, 1.5),
        FixedSchedule(n=2000, k=4, alpha0=1.5),
        RngRegistry(3).stream("count-golden/aggregate"),
        shards=2,
        engine="aggregate",
        epsilon=0.05,
        record_trajectory=True,
        **kwargs,
    )


RUNS = {"dynamics_three_majority": _dynamics_run, "aggregate_sync": _aggregate_run}


def _result_record(result) -> dict:
    """Result fields and trajectory, floats as ``repr``."""
    return {
        "converged": bool(result.converged),
        "winner": int(result.winner),
        "plurality_color": int(result.plurality_color),
        "elapsed": repr(result.elapsed),
        "counts": result.final_color_counts.tolist(),
        "eps_time": repr(result.epsilon_convergence_time),
        "births": [
            [b.generation, repr(b.time), repr(b.fraction), repr(b.bias)]
            for b in result.births
        ],
        "trajectory": [
            [repr(s.time), s.top_generation, repr(s.top_generation_fraction),
             repr(s.plurality_fraction), repr(s.bias)]
            for s in result.trajectory
        ],
    }


def pinned_run(name: str) -> dict:
    """One traced, metered sharded run reduced to JSON-exact fields."""
    tracer = TraceRecorder()
    metrics = MetricsRegistry()
    result = RUNS[name](tracer=tracer, metrics=metrics)
    record = _result_record(result)
    record["trace"] = [[r.kind, repr(r.time), r.fields] for r in tracer.records]
    record["counters"] = {
        counter: value
        for counter, value in metrics.snapshot()["counters"].items()
        if not counter.startswith("shard.")
    }
    return json.loads(json.dumps(record, sort_keys=True))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_sharded_count_run_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert pinned_run(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: pinned_run(name) for name in sorted(RUNS)}, indent=1, sort_keys=True)
        + "\n"
    )
