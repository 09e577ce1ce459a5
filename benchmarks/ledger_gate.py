"""The ledger gate: each perfbench workload against a committed baseline.

    python3 benchmarks/ledger_gate.py                # run every workload, then compare
    python3 benchmarks/ledger_gate.py --calibrate 7  # rewrite the baseline from 7 rounds

Each ``BENCHMARK.json`` workload runs as ``perfbench/run.py --seed 1
--seconds 10 --trace 0``. The gate exits 1 when a ledger holds a failed
check, or when its main metric (``ms_per_unit``; ``runs_per_s`` for
``sweep_small_runs``) is worse than ``ledger_baseline.json`` by more
than the metric's bound. Host-probed workloads already read in
reference-host seconds; the others are compared as a ratio to the
ledger's ``core/reference.py`` yardstick. A workload whose calibration
runs spread ((max - min) / median) wider than its bound is printed but
not gated, since a run of the unchanged tree could fail it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "ledger_baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}


def run_ledger(workload: str) -> dict:
    """Run one workload and read its fresh ledger.

    run.py exits 0, or 1 when a check failed (it still writes the
    ledger). Any other exit leaves no ledger of this run, so it comes
    back as a ledger with that failure alone, never as an older file.
    """
    command = ["perfbench/run.py", "--workload", workload, "--seed", "1"]
    command += ["--seconds", "10", "--trace", "0"]
    print("+ " + " ".join(command), flush=True)
    path = ROOT / ".perfbench" / f"{workload}-seed1-trace0.json"
    path.unlink(missing_ok=True)
    code = subprocess.run([sys.executable, *command], cwd=ROOT, stdout=subprocess.DEVNULL).returncode
    if code not in (0, 1) or not path.exists():
        return {"failures": [f"perfbench/run.py exited {code} without a ledger"]}
    return json.loads(path.read_text())


def main_metric(ledger: dict) -> tuple[dict, float, bool]:
    """The main metric's contract entry, its host-normalised value, and whether probed."""
    sweep = ledger["provenance"]["workload"] == "sweep_small_runs"
    metric = METRICS["runs_per_s" if sweep else "ms_per_unit"]
    value = ledger["metrics"][metric["name"]]["value"]
    if all(rep["host_probe"] for cycle in ledger["cycles"] for rep in cycle):
        return metric, value, True
    yardstick = ledger["provenance"]["yardstick"]["seconds"]
    return metric, value * yardstick if metric["better"] == "higher" else value / yardstick, False


def calibrate(rounds: int) -> int:
    runs: dict[str, list[float]] = {workload: [] for workload in WORKLOADS}
    baseline = {}
    for _ in range(rounds):
        for workload in WORKLOADS:
            ledger = run_ledger(workload)
            if ledger["failures"]:
                print(f"error: {workload}: {ledger['failures'][0]}", file=sys.stderr)
                return 1
            metric, value, probed = main_metric(ledger)
            runs[workload].append(value)
            median = statistics.median(runs[workload])
            spread = (max(runs[workload]) - min(runs[workload])) / median
            baseline[workload] = {
                "metric": metric["name"], "probed": probed, "value": median,
                "spread": round(spread, 4), "runs": runs[workload],
                "gated": spread <= metric["bound"],
            }
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0


def gate() -> int:
    baseline = json.loads(BASELINE.read_text())
    failed = False
    for workload in WORKLOADS:
        ledger = run_ledger(workload)
        if ledger["failures"]:
            print(f"{workload:26s} FAILED: {ledger['failures'][0]}")
            failed = True
            continue
        base = baseline[workload]
        metric, value, _ = main_metric(ledger)
        change = value / base["value"] - 1
        worse = -change if metric["better"] == "higher" else change
        if not base["gated"]:
            verdict = f"not gated: calibration runs spread {base['spread']:.0%}, over the bound"
        elif worse > metric["bound"]:
            verdict, failed = f"WORSE by {worse:.1%}", True
        else:
            verdict = "ok"
        scale = "" if base["probed"] else " per yardstick s"
        print(
            f"{workload:26s} {metric['name']} {value:.4g} vs {base['value']:.4g}{scale}"
            f" ({change:+.1%}, bound {metric['bound']:.0%}): {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calibrate", type=int, metavar="ROUNDS", help="rewrite the baseline")
    args = parser.parse_args()
    sys.exit(calibrate(args.calibrate) if args.calibrate else gate())
