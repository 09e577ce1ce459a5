"""Faulty single-leader runs, pinned byte for byte.

``golden_faulty_single_leader.json`` holds single-leader runs under
i.i.d. drop, bursty drop, stragglers and churn, with the protocol and
the faults sharing one generator as in the ``single_leader`` sweep
target.  Entries are keyed ``case/engine``, the engine being
:data:`~repro.engine.simulator.DEFAULT_ENGINE`.  Every fault
decision — which message or exchange is dropped, delayed or suppressed,
and in which order the fault pools draw — shows in the pinned fields, so
a change to how the protocol files its messages cannot quietly change
what the faults do to them.

The ``wide`` case runs n above the draw-pool block size for a short
horizon: the construction-time signals then interleave pool refills
of the protocol and of the fault models.

Regenerate only for an intended trajectory change::

    PYTHONPATH=src python tests/scenarios/test_faulty_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.rng import RngRegistry
from repro.engine.simulator import DEFAULT_ENGINE
from repro.engine.tracing import TraceRecorder
from repro.scenarios.faults import build_faults, prepare_faulty_simulator
from repro.workloads.opinions import biased_counts

GOLDEN_PATH = Path(__file__).parent / "golden_faulty_single_leader.json"

#: case -> (fault knobs, n, max_time)
CASES: dict[str, tuple[dict, int, float]] = {
    "iid": ({"drop": 0.2}, 300, 800.0),
    "bursty": ({"drop": 0.2, "drop_model": "bursty"}, 300, 800.0),
    "stragglers": ({"stragglers": 0.3}, 300, 800.0),
    "churn": ({"churn": 0.5}, 300, 800.0),
    "mixed": ({"drop": 0.1, "churn": 0.5, "stragglers": 0.2}, 300, 800.0),
    "wide": ({"drop": 0.2, "churn": 0.5}, 5000, 1.5),
}


def _records(tracer: TraceRecorder, kind: str) -> list:
    return [[r.time, r.fields] for r in tracer.by_kind(kind)]


def faulty_run(case: str) -> dict:
    """One faulty run, reduced to JSON-exact fields (floats via JSON repr)."""
    knobs, n, max_time = CASES[case]
    rng = RngRegistry(42).stream(f"faulty/{case}")
    tracer = TraceRecorder(kinds=("phase", "end", "fault"))
    simulator, wiring = prepare_faulty_simulator(
        n, build_faults(**knobs), rng, tracer=tracer
    )
    sim = SingleLeaderSim(
        SingleLeaderParams(n=n, k=3, alpha0=2.0),
        biased_counts(n, 3, 2.0),
        rng,
        simulator=simulator,
    )
    wiring.bind(sim)
    result = sim.run(max_time=max_time)
    faults = _records(tracer, "fault")
    return {
        "converged": bool(result.converged),
        "elapsed": result.elapsed,
        "counts": result.final_color_counts.tolist(),
        "events": sim.sim.events_executed,
        "info": result.info,
        "births": [[b.generation, b.time, b.fraction, b.bias] for b in result.births],
        "phase": _records(tracer, "phase"),
        "end": _records(tracer, "end"),
        "fault_records": len(faults),
        "fault_records_sha256": hashlib.sha256(
            json.dumps(faults, sort_keys=True).encode()
        ).hexdigest(),
        "wiring": wiring.info(),
    }


def _roundtrip(value):
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize(
    "case", sorted(CASES), ids=lambda case: f"{case}-{DEFAULT_ENGINE}"
)
def test_faulty_run_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _roundtrip(faulty_run(case)) == golden[f"{case}/{DEFAULT_ENGINE}"]


def test_golden_runs_exercise_every_fault():
    """Each case really drops, delays or churns (no vacuous pins)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    engine = DEFAULT_ENGINE
    assert golden[f"iid/{engine}"]["wiring"]["fault_iid_dropped"] > 0
    assert golden[f"bursty/{engine}"]["wiring"]["fault_ge_bursts"] > 0
    assert golden[f"churn/{engine}"]["wiring"]["fault_crashes"] > 0
    assert golden[f"wide/{engine}"]["wiring"]["fault_dropped_messages"] > 0
    for case in CASES:
        assert golden[f"{case}/{engine}"]["info"]["leader_zero_signals"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {f"{case}/{DEFAULT_ENGINE}": faulty_run(case) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
