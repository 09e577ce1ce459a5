"""Fast self-check of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` is well formed and names the workloads
``workloads.py`` defines, that every run prints a last line of exactly
``correct``/``attempted``/``failed``/``metrics`` with each contract
metric present under its contract unit, that every name matches
``[A-Za-z0-9_.-]+``, and that every per-layer metric is actually
measured by at least one workload (not just filled in as 0). It takes
about a minute. Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_contract(contract: dict, workload_names: list[str], buckets: list[str]) -> list[str]:
    problems = []
    names = [w["name"] for w in contract["workloads"]]
    if sorted(names) != sorted(workload_names):
        problems.append(f"BENCHMARK.json workloads {names} != workloads.py {workload_names}")
    metrics = contract["end_to_end"] + contract["per_layer"]
    seen = set()
    for entry in metrics + contract["workloads"]:
        if not NAME.fullmatch(entry["name"]):
            problems.append(f"bad name {entry['name']!r}")
        if entry["name"] in seen:
            problems.append(f"name used twice: {entry['name']!r}")
        seen.add(entry["name"])
    for entry in metrics:
        if not UNIT.fullmatch(entry["unit"]):
            problems.append(f"bad unit {entry['unit']!r} on {entry['name']}")
        if entry["better"] not in ("lower", "higher"):
            problems.append(f"bad 'better' on {entry['name']}")
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    if any(not 0 < bound <= 0.25 for bound in bounds.values()):
        problems.append(f"end-to-end bounds must lie in (0, 0.25]: {bounds}")
    per_layer = {entry["name"] for entry in contract["per_layer"]}
    for bucket in buckets:
        for name in (f"profile.{bucket}_s", f"profile.{bucket}_share"):
            if name not in per_layer:
                problems.append(f"bucket {bucket!r} has no per-layer metric {name}")
    return problems


def check_result(workload: str, trace: int, contract: dict) -> tuple[list[str], list[str]]:
    """Run one tiny workload; return (problems, per-layer names it left unmeasured)."""
    label = f"{workload} --trace {trace}"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"], []
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: checks failed: {result['failed']} of {result['attempted']}")
    section = contract["per_layer" if trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in section}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metric names/units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if not NAME.fullmatch(name) or not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: bad metric {name!r}: {metric!r}")
    ledger = json.loads((ROOT / ".perfbench" / f"{workload}-seed1-trace{trace}.json").read_text())
    return problems, ledger["unmeasured"]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from profile_buckets import load_buckets

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_contract(contract, list(workloads.WORKLOADS), load_buckets()[0])
    unmeasured_everywhere = {entry["name"] for entry in contract["per_layer"]}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            found, unmeasured = check_result(workload, trace, contract)
            problems += found
            if trace:
                unmeasured_everywhere &= set(unmeasured)
    if unmeasured_everywhere:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured_everywhere)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
