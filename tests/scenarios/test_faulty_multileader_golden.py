"""Faulty multi-leader runs, pinned byte for byte.

``golden_faulty_multileader.json`` holds runs of the ``multileader``
sweep target (clustering, then Algorithms 4+5) under event-seam faults:
the benchmark's i.i.d. drop + stragglers config at small n, bursty drop,
and Poisson churn.  Entries are keyed ``case/engine``, the engine being
:data:`~repro.engine.simulator.DEFAULT_ENGINE`.  Both phase simulators
file their tick and signal windows as bulk blocks, so these pins hold
the fault seam's block path to the per-event semantics: which message
or exchange is dropped, delayed or suppressed, and in which order the
fault pools draw, shows in the record fields and in the hashes of the
phase and fault trace records.

Regenerate only for an intended trajectory change::

    PYTHONPATH=src python tests/scenarios/test_faulty_multileader_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.rng import RngRegistry
from repro.engine.simulator import DEFAULT_ENGINE
from repro.engine.tracing import TraceRecorder
from repro.sweep.targets import get_target

GOLDEN_PATH = Path(__file__).parent / "golden_faulty_multileader.json"

_BASE = {"n": 200, "k": 3, "alpha": 2.0, "epsilon": 0.02}

#: case -> multileader target params
CASES: dict[str, dict] = {
    "iid": {**_BASE, "drop": 0.1, "stragglers": 0.1},
    "bursty": {**_BASE, "drop": 0.2, "drop_model": "bursty"},
    "churn": {**_BASE, "churn": 0.5, "max_time": 400.0},
}


def _records(tracer: TraceRecorder, kind: str) -> list:
    return [[r.time, r.fields] for r in tracer.by_kind(kind)]


def _digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def faulty_run(case: str) -> dict:
    """One faulty pipeline run, reduced to JSON-exact fields."""
    tracer = TraceRecorder(kinds=("phase", "end", "fault"))
    rng = RngRegistry(42).stream(f"faulty-multileader/{case}")
    record = get_target("multileader")(CASES[case], rng, tracer=tracer)
    phase = _records(tracer, "phase")
    faults = _records(tracer, "fault")
    return {
        "record": record,
        "end": _records(tracer, "end"),
        "phase_records": len(phase),
        "phase_records_sha256": _digest(phase),
        "fault_records": len(faults),
        "fault_records_sha256": _digest(faults),
    }


def _roundtrip(value):
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize(
    "case", sorted(CASES), ids=lambda case: f"{case}-{DEFAULT_ENGINE}"
)
def test_faulty_multileader_run_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _roundtrip(faulty_run(case)) == golden[f"{case}/{DEFAULT_ENGINE}"]


def test_golden_runs_exercise_every_fault():
    """Each case really drops, delays or churns (no vacuous pins)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    engine = DEFAULT_ENGINE
    assert golden[f"iid/{engine}"]["record"]["fault_iid_dropped"] > 0
    assert golden[f"iid/{engine}"]["record"]["fault_dropped_messages"] > 0
    assert golden[f"iid/{engine}"]["record"]["fault_dropped_exchanges"] > 0
    assert golden[f"bursty/{engine}"]["record"]["fault_ge_bursts"] > 0
    assert golden[f"churn/{engine}"]["record"]["fault_crashes"] > 0
    assert golden[f"churn/{engine}"]["record"]["fault_deferred_ticks"] > 0
    for case in CASES:
        assert golden[f"{case}/{engine}"]["phase_records"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {f"{case}/{DEFAULT_ENGINE}": faulty_run(case) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
