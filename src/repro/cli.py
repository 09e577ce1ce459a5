"""Command-line interface.

Usage::

    repro list                          # show the experiment registry
    repro run fig1 [--full] [--seed S]  # run one experiment, print tables
    repro reproduce [--full] [--out F]  # run everything, write Markdown
    repro reproduce --list              # list experiments without running
    repro demo [--n N] [--k K] ...      # one synchronous + one async run
    repro sweep TARGET --grid n=1e3,1e4 # parameter sweep, cached+parallel
    repro sweep --list-targets          # targets + their grid-able params
    repro sweep TARGET ... --state-dir D --max-retries 3 --run-timeout 60
    repro sweep --resume D              # continue an interrupted sweep
    repro robustness [--quick]          # adversity tables (cached sweep)
    repro chaos                         # fault-injection smoke of the supervisor
    repro trace-metrics trace.jsonl     # offline metrics from a JSONL trace
    repro trace-diff a.jsonl b.jsonl    # structural diff; exit 1 on divergence
    repro trace-view trace.jsonl        # static-HTML replay of a trace
    repro metrics-report m.json         # render a --metrics snapshot
    repro metrics-report m.json --compare base.json   # regression tables
    repro cache stats|gc [--dry-run]    # inspect / clean the run cache

``demo``, ``sweep``, and ``robustness`` all take ``--trace`` to stream
the protocol-level JSONL trace (``demo`` writes one file; the sweeping
commands write one file per run into the given directory and bypass
the run cache, since a cache hit would leave no trace on disk). The
``trace-*`` commands then consume those files offline.

The same three commands take ``--metrics PATH`` to collect runtime
counters, gauges, and latency histograms (engines, fault seams, shard
barriers, sweep cache) into one deterministic JSON snapshot — the
sorted-key counter sections are a pure function of the run, so two
snapshots diff cleanly. ``metrics-report`` renders a snapshot (or a
regression table against a ``--compare`` baseline), and
``metrics-report --prom`` emits the Prometheus text rendering for a
future serving tier.

Every sweep target accepts the same scenario axes: the substrate
(``topology=geometric ...``; ``single_leader`` additionally takes
per-edge latency ``weights=distance/uniform``), the initial
configuration (``init=clustered`` confines the plurality to one graph
ball), and one fault vocabulary (``drop/drop_model/churn/
churn_downtime/stragglers/straggler_slowdown``) that maps to the
event-stream seam on the asynchronous targets and to the round-level
seam on the synchronous/population ones, e.g.::

    repro sweep synchronous --set topology=regular --set engine=pernode \\
        --grid drop=0.1,0.3 --reps 4
    repro sweep population --grid churn=0,1 --set drop=0.2

``reproduce`` and ``sweep`` share the orchestration layer in
:mod:`repro.sweep`: work fans out over ``--workers`` processes and
completed runs land in a content-addressed cache (``--cache-dir``), so
re-invocations only execute what is missing. The same entry point is
reachable as ``python -m repro``.

``sweep`` and ``robustness`` run *supervised* when any of
``--max-retries`` / ``--run-timeout`` / ``--state-dir`` / ``--resume``
is given: crashed, hung, or raising runs are retried with
deterministic backoff, permanent failures annotate the tables instead
of aborting, and ``--state-dir`` checkpoints per-config progress into
a ``manifest.json`` that ``--resume`` continues from. Both commands
exit ``0`` only when every run succeeded, and ``3`` (after printing a
per-config failure table) otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import quick_async, quick_sync
from repro.errors import ConfigurationError
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.sweep.cache import DEFAULT_CACHE_DIR, RunCache
from repro.sweep.runner import run_experiments, run_sweep
from repro.sweep.spec import SweepSpec, parse_grid, parse_overrides
from repro.sweep.targets import target_names, target_params

__all__ = ["main", "build_parser"]


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="collect runtime metrics (counters/gauges/histograms) and write "
        "a deterministic JSON snapshot here (render with metrics-report)",
    )


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry crashed/hung/raising runs up to N times with deterministic "
        "backoff; exhausted runs become failure annotations (enables supervision)",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; overdue runs are killed and retried "
        "(enables supervision)",
    )
    parser.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="checkpoint per-config progress into DIR/manifest.json so an "
        "interrupted invocation can --resume (enables supervision)",
    )


def _supervisor_from_args(args: argparse.Namespace):
    """A SupervisorPolicy when any supervision flag was given, else None."""
    if (
        args.max_retries is None
        and args.run_timeout is None
        and args.state_dir is None
        and not getattr(args, "resume", None)
    ):
        return None
    from repro.sweep.supervisor import SupervisorPolicy

    kwargs = {}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    if args.run_timeout is not None:
        kwargs["run_timeout"] = args.run_timeout
    return SupervisorPolicy(**kwargs)


def _add_cache_arguments(parser: argparse.ArgumentParser, *, default_dir: Path | None) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=default_dir,
        help="run-cache directory (content-addressed JSON records)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="execute everything, touch no cache"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generation-based plurality consensus — paper reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run_parser = sub.add_parser("run", help="run one experiment and print its tables")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--full", action="store_true", help="full (slow) configuration")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-plot", action="store_true", help="skip ASCII plots")

    repro_parser = sub.add_parser("reproduce", help="run all experiments, emit Markdown")
    repro_parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list registered experiments (id, artifact, description) and exit",
    )
    repro_parser.add_argument("--full", action="store_true")
    repro_parser.add_argument("--seed", type=int, default=0)
    repro_parser.add_argument("--out", type=Path, default=None, help="write Markdown here")
    repro_parser.add_argument(
        "--only", nargs="*", default=None, help="subset of experiment ids"
    )
    repro_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, 0 = one per CPU)",
    )
    _add_cache_arguments(repro_parser, default_dir=None)

    demo_parser = sub.add_parser("demo", help="run the protocol once and print the outcome")
    demo_parser.add_argument("--n", type=int, default=100_000)
    demo_parser.add_argument("--k", type=int, default=8)
    demo_parser.add_argument("--alpha", type=float, default=1.5)
    demo_parser.add_argument("--seed", type=int, default=0)
    demo_parser.add_argument(
        "--asynchronous", action="store_true", help="run the single-leader protocol instead"
    )
    demo_parser.add_argument(
        "--shards", type=int, default=1, metavar="S",
        help="run the synchronous engine across S worker processes "
        "(1 = in-process; not available with --asynchronous)",
    )
    demo_parser.add_argument(
        "--report", action="store_true", help="print a full Markdown run report"
    )
    demo_parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="stream the run's protocol-level JSONL trace to this file",
    )
    _add_metrics_argument(demo_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a cached, parallel parameter sweep over one target"
    )
    sweep_parser.add_argument(
        "target", nargs="?", choices=target_names(),
        help="registered simulation entry point",
    )
    sweep_parser.add_argument(
        "--list-targets", action="store_true", dest="list_targets",
        help="list registered targets with their grid-able parameters and exit",
    )
    sweep_parser.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="sweep this parameter over the listed values (repeatable)",
    )
    sweep_parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="fix this parameter for every run (repeatable)",
    )
    sweep_parser.add_argument("--reps", type=int, default=1, help="repetitions per grid point")
    sweep_parser.add_argument("--seed", type=int, default=0, help="root seed")
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, 0 = one per CPU)",
    )
    sweep_parser.add_argument("--name", default=None, help="label used in the output table")
    sweep_parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="write one JSONL trace per run into this directory (bypasses the cache)",
    )
    _add_metrics_argument(sweep_parser)
    _add_cache_arguments(sweep_parser, default_dir=DEFAULT_CACHE_DIR)
    _add_supervision_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--resume", type=Path, default=None, metavar="DIR",
        help="continue the interrupted sweep checkpointed under DIR (the target "
        "and grid are read from its manifest; other spec flags are optional)",
    )

    robust_parser = sub.add_parser(
        "robustness", help="positive aging under adversity: cached topology/fault sweep"
    )
    robust_parser.add_argument("--full", action="store_true", help="full (slow) configuration")
    robust_parser.add_argument(
        "--quick", action="store_true",
        help="quick configuration (the default; kept for symmetry/scripts)",
    )
    robust_parser.add_argument("--seed", type=int, default=0)
    robust_parser.add_argument(
        "--profile", choices=("smoke", "quick", "full"), default=None,
        help="explicit scenario scale (overrides --quick/--full; smoke = CI-sized)",
    )
    robust_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, 0 = one per CPU)",
    )
    robust_parser.add_argument("--out", type=Path, default=None, help="write Markdown here")
    robust_parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="write per-run JSONL traces under this directory, one subdirectory "
        "per table (bypasses the cache)",
    )
    _add_metrics_argument(robust_parser)
    _add_cache_arguments(robust_parser, default_dir=DEFAULT_CACHE_DIR)
    _add_supervision_arguments(robust_parser)
    robust_parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted robustness grid from --state-dir "
        "(tables already checkpointed execute only their remainder)",
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help="fault-injection smoke test: a supervised sweep over the chaos "
        "target (kill/hang/raise) must retry, time out, isolate, and stay "
        "byte-identical to an unfaulted sweep",
    )
    chaos_parser.add_argument(
        "--run-timeout", type=float, default=2.0, metavar="SECONDS",
        help="wall-clock budget used to reap the injected hang (default 2.0)",
    )
    chaos_parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch state directory for inspection",
    )
    _add_metrics_argument(chaos_parser)

    metrics_parser = sub.add_parser(
        "trace-metrics", help="offline metrics (populations, aging phases, faults) from a trace"
    )
    metrics_parser.add_argument("trace", type=Path, help="JSONL trace file")
    metrics_parser.add_argument(
        "--out", type=Path, default=None, help="also write the report as Markdown here"
    )
    metrics_parser.add_argument(
        "--points", type=int, default=24,
        help="samples per population-curve table (default 24)",
    )

    diff_parser = sub.add_parser(
        "trace-diff",
        help="structural diff of two JSONL traces; exit 0 if identical, 1 otherwise",
    )
    diff_parser.add_argument("trace_a", type=Path, help="first JSONL trace file")
    diff_parser.add_argument("trace_b", type=Path, help="second JSONL trace file")

    report_parser = sub.add_parser(
        "metrics-report", help="render --metrics snapshots as tables (or a regression diff)"
    )
    report_parser.add_argument(
        "snapshots", type=Path, nargs="+",
        help="metrics snapshot file(s); several are merged before rendering",
    )
    report_parser.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="render regression tables against this baseline snapshot",
    )
    report_parser.add_argument(
        "--out", type=Path, default=None, help="also write the report as Markdown here"
    )
    report_parser.add_argument(
        "--prom", action="store_true",
        help="print the Prometheus text rendering instead of tables",
    )

    view_parser = sub.add_parser(
        "trace-view", help="render a trace to a self-contained HTML replay page"
    )
    view_parser.add_argument("trace", type=Path, help="JSONL trace file")
    view_parser.add_argument(
        "--out", type=Path, default=None,
        help="output HTML path (default: trace path with .html suffix)",
    )
    view_parser.add_argument("--title", default=None, help="page title")

    cache_parser = sub.add_parser("cache", help="inspect or clean the run cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    stats_parser = cache_sub.add_parser("stats", help="entry/byte/corruption counts")
    stats_parser.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR)
    gc_parser = cache_sub.add_parser(
        "gc", help="delete corrupt entries (and optionally old or all entries)"
    )
    gc_parser.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR)
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="report deletions without deleting"
    )
    gc_parser.add_argument(
        "--max-age-days", type=float, default=None,
        help="also delete valid entries older than this",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="shrink the cache to at most this many bytes, evicting "
        "least-recently-written entries first",
    )
    gc_parser.add_argument(
        "--all", action="store_true", dest="delete_all", help="delete every entry"
    )
    return parser


def _open_cache(args: argparse.Namespace) -> RunCache | None:
    if getattr(args, "no_cache", False) or args.cache_dir is None:
        return None
    return RunCache(args.cache_dir)


def _open_metrics(args: argparse.Namespace):
    """Registry for ``--metrics PATH`` (``None`` when the flag is absent)."""
    if getattr(args, "metrics", None) is None:
        return None
    from repro.engine.metrics import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args: argparse.Namespace, registry, label: str) -> None:
    if registry is None:
        return
    registry.write(args.metrics)
    print(f"[{label}] metrics snapshot written to {args.metrics}", file=sys.stderr)


def _command_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {experiment.artifact}  —  {experiment.description}")
    return 0


def _command_list_targets() -> int:
    for name in target_names():
        print(name)
        params = target_params(name)
        width = max(len(key) for key in params) if params else 0
        for key in sorted(params):
            print(f"  {key.ljust(width)} = {params[key]!r}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_experiment

    result = run_experiment(args.experiment, quick=not args.full, seed=args.seed)
    print(result.render(plot=not args.no_plot))
    return 0


def _command_reproduce(args: argparse.Namespace) -> int:
    if args.list_experiments:
        return _command_list()
    names = args.only if args.only else list(EXPERIMENTS)
    for name in names:
        get_experiment(name)
    outcomes = run_experiments(
        names,
        quick=not args.full,
        seed=args.seed,
        cache=_open_cache(args),
        workers=args.workers,
        echo=lambda line: print(line, file=sys.stderr),
    )
    sections = []
    for outcome in outcomes:
        if outcome.cached:
            print(f"[repro] {outcome.name}: cached", file=sys.stderr)
        print(outcome.result.render(plot=False))
        print()
        sections.append(outcome.result.render_markdown())
    if args.out is not None:
        args.out.write_text("\n\n".join(sections) + "\n")
        print(f"[repro] wrote {args.out}", file=sys.stderr)
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    if args.trace is not None:
        from repro.engine.tracing import JsonlTracer

        tracer_ctx = JsonlTracer(args.trace)
    else:
        tracer_ctx = nullcontext(None)
    if args.asynchronous and args.shards != 1:
        raise ConfigurationError(
            "--shards applies to the synchronous engine only; "
            "the event-driven engine stays single-process"
        )
    metrics = _open_metrics(args)
    with tracer_ctx as tracer:
        kwargs = {} if tracer is None else {"tracer": tracer}
        if metrics is not None:
            kwargs["metrics"] = metrics
        if args.asynchronous:
            result = quick_async(args.n, args.k, args.alpha, seed=args.seed, **kwargs)
        else:
            if args.shards != 1:
                kwargs["shards"] = args.shards
            result = quick_sync(args.n, args.k, args.alpha, seed=args.seed, **kwargs)
    if args.trace is not None:
        print(f"[demo] trace written to {args.trace}", file=sys.stderr)
    _write_metrics(args, metrics, "demo")
    if args.report:
        from repro.analysis.report import run_report

        kind = "single-leader asynchronous" if args.asynchronous else "synchronous"
        print(run_report(result, title=f"{kind} run (n={args.n}, k={args.k}, alpha={args.alpha})"))
        return 0 if result.plurality_won else 1
    print(result.summary())
    if args.asynchronous:
        unit = result.info.get("time_unit", 1.0)
        print(f"time: {result.elapsed:.1f} steps = {result.elapsed / unit:.2f} units")
    else:
        for birth in result.births:
            print(
                f"  generation {birth.generation}: born t={birth.time:.0f} "
                f"fraction={birth.fraction:.4f} bias={birth.bias:.3g}"
            )
    return 0 if result.plurality_won else 1


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.aggregate import aggregate_table

    if args.list_targets:
        return _command_list_targets()
    resume = args.resume is not None
    state_dir = args.resume if resume else args.state_dir
    if args.target is not None:
        spec = SweepSpec(
            target=args.target,
            base=parse_overrides(args.overrides),
            grid=parse_grid(args.grid),
            repetitions=args.reps,
            seed=args.seed,
            name=args.name,
        )
    elif resume:
        # The manifest stores the full spec; --resume DIR alone is
        # enough to continue the sweep.
        from repro.sweep.supervisor import SweepManifest

        spec = SweepManifest.load(state_dir).spec
    else:
        raise ConfigurationError("a sweep target is required (or pass --list-targets)")
    metrics = _open_metrics(args)
    report = run_sweep(
        spec,
        cache=_open_cache(args),
        workers=args.workers,
        echo=lambda line: print(line, file=sys.stderr),
        trace_dir=None if args.trace is None else str(args.trace),
        metrics=metrics,
        supervisor=_supervisor_from_args(args),
        state_dir=None if state_dir is None else str(state_dir),
        resume=resume,
    )
    if args.trace is not None:
        print(f"[sweep] traces written under {args.trace}", file=sys.stderr)
    _write_metrics(args, metrics, "sweep")
    print(aggregate_table(spec, report.records).render())
    print()
    print(report.summary())
    return _finish_supervised(report.failures)


def _finish_supervised(failures) -> int:
    """Exit-code epilogue shared by sweep/robustness: 0 clean, 3 failed."""
    if not failures:
        return 0
    from repro.sweep.supervisor import failure_table

    print()
    print(failure_table(failures).render())
    return 3


def _command_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import run_robustness

    metrics = _open_metrics(args)
    report = run_robustness(
        quick=not args.full,
        seed=args.seed,
        cache=_open_cache(args),
        workers=args.workers,
        profile=args.profile,
        echo=lambda line: print(line, file=sys.stderr),
        trace_dir=None if args.trace is None else str(args.trace),
        metrics=metrics,
        supervisor=_supervisor_from_args(args),
        state_dir=None if args.state_dir is None else str(args.state_dir),
        resume=args.resume,
    )
    if args.trace is not None:
        print(f"[robustness] traces written under {args.trace}", file=sys.stderr)
    _write_metrics(args, metrics, "robustness")
    print(report.result.render(plot=False))
    accounting = f"[robustness] {report.executed} runs executed, {report.cached} cached"
    if report.resumed:
        accounting += f", {report.resumed} resumed"
    print(accounting, file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.result.render_markdown() + "\n")
        print(f"[robustness] wrote {args.out}", file=sys.stderr)
    return _finish_supervised(report.failures)


def _command_chaos(args: argparse.Namespace) -> int:
    """Supervised fault-injection smoke: kill, hang, raise — then verify.

    Runs one supervised sweep over the ``chaos`` target whose modes
    misbehave exactly once (marker files arm the faults), then checks
    the supervisor's books: the sweep completes with the always-raising
    config isolated, the retry/timeout/failure counters match the
    injected faults exactly, and every recovered record is
    byte-identical to an unfaulted sweep.
    """
    import shutil
    import tempfile

    from repro.engine.metrics import MetricsRegistry
    from repro.sweep.supervisor import SupervisorPolicy

    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, passed: bool, detail: str = "") -> None:
        checks.append((label, passed, detail))

    echo = lambda line: print(line, file=sys.stderr)  # noqa: E731
    try:
        modes = ["ok", "flaky_raise", "flaky_kill", "flaky_hang", "raise"]
        spec = SweepSpec(
            target="chaos",
            base={"marker_dir": str(scratch / "markers")},
            grid={"mode": modes},
            repetitions=1,
            seed=0,
            name="chaos",
        )
        policy = SupervisorPolicy(
            max_retries=2,
            run_timeout=args.run_timeout,
            backoff_base=0.05,
            backoff_max=0.25,
        )
        metrics = MetricsRegistry()
        report = run_sweep(
            spec, cache=None, workers=1, echo=echo, metrics=metrics,
            supervisor=policy, state_dir=str(scratch / "state"),
        )
        counters = metrics.snapshot()["counters"]
        check(
            "sweep completed; only the always-raising config failed",
            len(report.failures) == 1
            and report.failures[0].params.get("mode") == "raise"
            and report.failures[0].kind == "error",
            f"failures={[(f.params.get('mode'), f.kind) for f in report.failures]}",
        )
        # raise burns its full retry budget (2); each flaky mode faults
        # exactly once then its marker disarms it (1 retry each).
        expected_retries = policy.max_retries + 3
        for name, expected in (
            ("sweep.retries", expected_retries),
            ("sweep.timeouts", 1),
            ("sweep.failures", 1),
        ):
            check(
                f"{name} == {expected}",
                counters.get(name) == expected,
                f"got {counters.get(name)}",
            )
        check(
            "pool rebuilt after kill and hang",
            counters.get("sweep.pool_rebuilds", 0) >= 2,
            f"got {counters.get('sweep.pool_rebuilds')}",
        )
        # The markers persist, so a second sweep runs fault-free; retried
        # records must match it byte-for-byte (modulo wall clock). The
        # always-raising mode is dropped — unsupervised, it would abort.
        clean_spec = SweepSpec(
            target="chaos",
            base=spec.base,
            grid={"mode": [mode for mode in modes if mode != "raise"]},
            repetitions=1,
            seed=0,
            name="chaos-clean",
        )
        clean = run_sweep(clean_spec, cache=None, workers=1)
        strip = lambda r: {k: v for k, v in r.items() if k != "wall_time"}  # noqa: E731
        recovered = {
            config.params_dict["mode"]: record
            for config, record in zip(report.configs, report.records)
            if record is not None
        }
        baseline = {
            config.params_dict["mode"]: record
            for config, record in zip(clean.configs, clean.records)
            if record is not None
        }
        check(
            "recovered records byte-identical to the unfaulted sweep",
            set(recovered) == set(baseline) - {"raise"}
            and all(strip(recovered[m]) == strip(baseline[m]) for m in recovered),
        )
        if args.metrics is not None:
            metrics.write(args.metrics)
            print(f"[chaos] metrics snapshot written to {args.metrics}", file=sys.stderr)
    finally:
        if args.keep:
            print(f"[chaos] state kept under {scratch}", file=sys.stderr)
        else:
            shutil.rmtree(scratch, ignore_errors=True)
    failed = [item for item in checks if not item[1]]
    for label, passed, detail in checks:
        suffix = f"  ({detail})" if detail and not passed else ""
        print(f"[chaos] {'PASS' if passed else 'FAIL'}: {label}{suffix}")
    print(f"[chaos] {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _command_trace_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.trace_metrics import trace_metrics

    result = trace_metrics(args.trace, points=args.points)
    print(result.render(plot=False))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(result.render_markdown() + "\n")
        print(f"[trace-metrics] wrote {args.out}", file=sys.stderr)
    return 0


def _command_trace_diff(args: argparse.Namespace) -> int:
    from repro.analysis.trace_diff import diff_traces, render_diff

    diff = diff_traces(args.trace_a, args.trace_b)
    print(render_diff(diff))
    return 0 if diff.equal else 1


def _command_metrics_report(args: argparse.Namespace) -> int:
    from repro.analysis.metrics_report import metrics_report

    if args.prom:
        from repro.engine.metrics import (
            load_snapshot,
            merge_snapshots,
            render_prometheus,
        )

        snapshot = merge_snapshots(load_snapshot(path) for path in args.snapshots)
        print(render_prometheus(snapshot), end="")
        return 0
    result = metrics_report(args.snapshots, compare=args.compare)
    print(result.render(plot=False))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(result.render_markdown() + "\n")
        print(f"[metrics-report] wrote {args.out}", file=sys.stderr)
    return 0


def _command_trace_view(args: argparse.Namespace) -> int:
    from repro.visualizer import write_replay_html

    out = write_replay_html(args.trace, args.out, title=args.title)
    print(f"[trace-view] wrote {out}", file=sys.stderr)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    cache = RunCache(args.cache_dir)
    if args.cache_command == "stats":
        print(cache.stats().render())
        return 0
    if args.cache_command == "gc":
        doomed = cache.gc(
            dry_run=args.dry_run,
            max_age_days=args.max_age_days,
            max_bytes=args.max_bytes,
            delete_all=args.delete_all,
        )
        verb = "would delete" if args.dry_run else "deleted"
        print(
            f"cache {cache.root}: {verb} {len(doomed)} "
            f"entr{'y' if len(doomed) == 1 else 'ies'} "
            f"({cache.gc_freed_bytes / 1024:.1f} KiB)"
        )
        for path in doomed:
            print(f"  {path.name}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


_COMMANDS = {
    "list": lambda args: _command_list(),
    "run": _command_run,
    "reproduce": _command_reproduce,
    "demo": _command_demo,
    "sweep": _command_sweep,
    "robustness": _command_robustness,
    "chaos": _command_chaos,
    "trace-metrics": _command_trace_metrics,
    "trace-diff": _command_trace_diff,
    "metrics-report": _command_metrics_report,
    "trace-view": _command_trace_view,
    "cache": _command_cache,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        # The one error boundary: an invalid input raised anywhere below
        # is a one-line error and exit 2, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
