"""Run one benchmark workload, check its outputs, and print its metrics.

    python3 perfbench/run.py --workload async_kn --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds nothing: the program is
imported from ``src/``. ``BENCHMARK.json`` at the root names the
workloads and the metrics with their units.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` is the median over fresh interpreters that import the
program, generate the inputs and build what a run needs. After one
untimed warm-up repetition, the workload's replicas (trajectories drawn
from the seed) run in cycles until the next cycle would pass
``--seconds``, and at least ``MIN_CYCLES`` times. The timings are totals
over all timed repetitions: time over simulated units, runs over time,
and the mean repetition. On workloads that run in one process, each
repetition's time is first scaled to a reference host speed that a
``HostProbe`` samples while the repetition runs (see ``README.md``).

``--trace 1`` gives the per-layer metrics instead. It runs the workload
twice: once with a metrics registry and the spans in ``workloads.py``,
and once more, the same way, under cProfile, whose self time is grouped
into the layer buckets of ``buckets.json``. ``trace_overhead`` is the
profiled pass's wall time over the first pass's. ``--seconds`` does not
apply.

Each run also checks the program's outputs (see ``README.md``). Every
check is one attempt; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON, and the exit
code is 1 when a check failed. A fuller record with provenance goes to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import heapq
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
CONTRACT = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 3
#: Timed cycles over the replicas a run makes at least, so each replica
#: runs twice and its output must repeat.
MIN_CYCLES = 2
#: On workloads that run in one process, a timer signal runs a fixed
#: probe this often while a repetition runs ...
PROBE_INTERVAL_S = 0.025
#: ... and the repetition's time is scaled by this reference probe time
#: over the mean probe time, so it reads in seconds of a host on which
#: the probe takes 0.5 ms.
PROBE_REFERENCE_S = 0.0005
#: The machine yardstick: the seed oracle on a fixed small config, timed
#: in every run so ledgers from different machines compare as ratios.
YARDSTICK = {"n": 300, "k": 2, "alpha": 2.0, "seed": 0, "repeats": 3}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes, for the self-check only"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_workdir() -> None:
    """Keep every file the program writes (caches, temp files) in the checkout."""
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def setup_probe_command(args: argparse.Namespace) -> list[str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
    command += ["--seed", str(args.seed), "--setup-probe"]
    return command + (["--tiny"] if args.tiny else [])


def measure_setup_s(args: argparse.Namespace) -> float:
    """Median time from starting a fresh interpreter to its "ready" line."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            setup_probe_command(args), stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline()
            ready = perf_counter()
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {probe.returncode}): {line!r}")
        samples.append(ready - start)
    return statistics.median(samples)


def yardstick_s() -> float:
    """Median wall time of the seed oracle on the fixed yardstick config."""
    from repro.core.params import SingleLeaderParams
    from repro.core.reference import ReferenceSingleLeaderSim
    from repro.engine.rng import RngRegistry
    from repro.scenarios.adversary import adversarial_counts

    n, k, alpha = YARDSTICK["n"], YARDSTICK["k"], YARDSTICK["alpha"]
    samples = []
    for _ in range(YARDSTICK["repeats"]):
        rng = RngRegistry(YARDSTICK["seed"]).stream("perfbench/yardstick")
        start = perf_counter()
        ReferenceSingleLeaderSim(
            SingleLeaderParams(n=n, k=k, alpha0=alpha),
            adversarial_counts("biased", n, k, alpha),
            rng,
        ).run()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def git_state() -> tuple[str | None, bool | None]:
    """``(commit, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    import repro
    from repro.engine.simulator import DEFAULT_ENGINE

    commit, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": commit,
        "git_dirty": dirty,
        "repro_version": repro.__version__,
        "event_engine": os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "yardstick": {**YARDSTICK, "target": "core/reference.py", "seconds": yardstick_s()},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024


class Checks:
    """Correctness checks: each is one attempt; failures keep their reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add_rep(self, rep, label: str) -> None:
        self.attempted += rep.checks
        self.failures += [f"{label}: {reason}" for reason in rep.failures]

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def probe_work() -> None:
    """The host probe: heap and dict traffic like the event engine's."""
    heap, counts, x = [], {}, 12345
    for i in range(700):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        if len(heap) > 32:
            _, j = heapq.heappop(heap)
            counts[j & 255] = counts.get(j & 255, 0) + 1


class HostProbe:
    """Times ``probe_work`` from a timer signal while a repetition runs.

    The handler runs between the program's bytecodes, in its thread on
    its CPU, so the samples see the host in the state the program sees.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        probe_work()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_once(workload, inputs: dict, replica: int) -> tuple:
    """One untraced repetition, and the host probe's record of it (or ``None``).

    On a probed workload the repetition's times are returned in
    reference-host seconds: the probes' own time is taken out, and the
    rest is scaled by ``PROBE_REFERENCE_S`` over the mean probe time.
    """
    state = workload.prepare(inputs, WORKDIR, replica)
    gc.collect()
    if not workload.host_probe:
        return workload.run(state, traced=False), None
    with HostProbe() as probe:
        rep = workload.run(state, traced=False)
    if not probe.samples:
        probe.sample()
    probe_s = sum(probe.samples)
    scale = PROBE_REFERENCE_S / statistics.fmean(probe.samples)
    host = {"probes": len(probe.samples), "probe_s": probe_s, "scale": scale, "raw_wall_s": rep.wall_s}
    rep = dataclasses.replace(
        rep,
        wall_s=(rep.wall_s - probe_s) * scale,
        unit_wall_s=(rep.unit_wall_s - probe_s) * scale,
    )
    return rep, host


def run_timed(workload, inputs: dict, seconds: float, checks: Checks) -> tuple[list, list]:
    """Timed cycles over the replicas until the next cycle would pass ``seconds``.

    Returns one list of repetitions per cycle, indexed by replica, and
    the host probe's records in the same shape. The untimed warm-up
    repetition of replica 0 is checked like the rest.
    """
    warm_up, _ = run_once(workload, inputs, 0)
    checks.add_rep(warm_up, "warm-up")
    cycles: list[list] = []
    hosts: list[list] = []
    start = perf_counter()
    while True:
        cycle, cycle_hosts = [], []
        for replica in range(workload.replicas):
            rep, host = run_once(workload, inputs, replica)
            label = f"cycle {len(cycles)} replica {replica}"
            checks.add_rep(rep, label)
            first = cycles[0][replica] if cycles else warm_up if replica == 0 else None
            if first is not None:
                checks.expect(
                    rep.outcome == first.outcome,
                    f"{label}: output differs from an earlier run of the same inputs",
                )
            cycle.append(rep)
            cycle_hosts.append(host)
        cycles.append(cycle)
        hosts.append(cycle_hosts)
        elapsed = perf_counter() - start
        if len(cycles) >= MIN_CYCLES and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return cycles, hosts


def end_to_end_values(cycles: list[list], setup_s: float) -> dict[str, float]:
    """Totals over every timed repetition: time over work done.

    Every cycle runs every replica once, so each trajectory weighs by
    its length. On a host whose speed flips between a fast and a slow
    state, these means moved less from run to run than medians or minima
    of the repetitions (see ``README.md``).
    """
    reps = [rep for cycle in cycles for rep in cycle]
    unit_wall = sum(rep.unit_wall_s for rep in reps)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(rep.wall_s for rep in reps),
        "ms_per_unit": 1000 * unit_wall / sum(rep.units for rep in reps),
        "runs_per_s": sum(rep.runs for rep in reps) / unit_wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(workload, inputs: dict, checks: Checks):
    """The spans + counters pass, then the same pass again under cProfile."""
    from profile_buckets import bucket_seconds

    state = workload.prepare(inputs, WORKDIR, 0)
    gc.collect()
    spans = workload.run(state, traced=True)
    checks.add_rep(spans, "traced pass")
    state = workload.prepare(inputs, WORKDIR, 0)
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = workload.run(state, traced=True)
    finally:
        profiler.disable()
    checks.add_rep(profiled, "profiled pass")
    checks.expect(
        profiled.outcome == spans.outcome, "profiled pass output differs from traced pass"
    )
    counters = spans.metrics.snapshot()["counters"]
    checks.expect(
        profiled.metrics.snapshot()["counters"] == counters,
        "counters differ between two traced passes on the same inputs",
    )
    values = dict(counters)
    for bucket, seconds in bucket_seconds(profiler).items():
        values[f"profile.{bucket}_s"] = seconds
        values[f"profile.{bucket}_share"] = seconds / profiled.wall_s
    values["trace_overhead"] = profiled.wall_s / spans.wall_s
    values.update(spans.layers)
    return values, [[spans, profiled]]


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shared memory."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    use_workdir()
    inputs = workload.inputs(args.seed, args.tiny)
    if args.setup_probe:
        workload.prepare(inputs, WORKDIR, 0)
        print("ready", flush=True)
        return 0

    contract = json.loads(CONTRACT.read_text())
    section = contract["per_layer" if args.trace else "end_to_end"]
    checks = Checks()
    try:
        if args.trace:
            values, cycles = run_traced(workload, inputs, checks)
            hosts = [[None] * len(cycle) for cycle in cycles]
        else:
            setup_s = measure_setup_s(args)
            cycles, hosts = run_timed(workload, inputs, args.seconds, checks)
            values = end_to_end_values(cycles, setup_s)
        meta = provenance(args)
    finally:
        shutil.rmtree(WORKDIR / "sweep-cache", ignore_errors=True)
        stop_resource_tracker()

    metrics, unmeasured = {}, []
    for entry in section:
        name = entry["name"]
        if name not in values:
            unmeasured.append(name)
        metrics[name] = {"value": values.get(name, 0), "unit": entry["unit"]}
    failed = len(checks.failures)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(cycles)} cycles of {len(cycles[0])} repetitions"
    )
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {failed / checks.attempted:.6g} ({failed} of {checks.attempted} checks)")
    for reason in checks.failures:
        print(f"  FAILED {reason}")
    ledger = {
        "provenance": meta,
        "metrics": metrics,
        "unmeasured": unmeasured,
        "failed_frac": failed / checks.attempted,
        "failures": checks.failures,
        "cycles": [
            [
                {
                    "wall_s": rep.wall_s,
                    "unit_wall_s": rep.unit_wall_s,
                    "units": rep.units,
                    "runs": rep.runs,
                    "host_probe": host,
                }
                for rep, host in zip(cycle, cycle_hosts)
            ]
            for cycle, cycle_hosts in zip(cycles, hosts)
        ],
    }
    path = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print("provenance " + json.dumps(meta, sort_keys=True))
    print(f"ledger {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
