"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sweep import runner


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "unknown-experiment"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 100_000
        assert not args.asynchronous


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "thm26" in out

    def test_demo_sync(self, capsys):
        code = main(["demo", "--n", "5000", "--k", "3", "--alpha", "2.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus" in out
        assert "generation 1" in out

    def test_demo_async(self, capsys):
        code = main(
            ["demo", "--n", "400", "--k", "3", "--alpha", "2.0", "--seed", "1",
             "--asynchronous"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "units" in out

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "steps per time unit" in out

    def test_reproduce_subset_writes_markdown(self, tmp_path, capsys):
        out_file = tmp_path / "exp.md"
        assert main(["reproduce", "--only", "fig1", "--out", str(out_file)]) == 0
        content = out_file.read_text()
        assert content.startswith("### fig1")


class TestSweepCommand:
    ARGS = [
        "sweep", "synchronous",
        "--grid", "n=100,200", "--set", "k=2", "--set", "alpha=2.0",
        "--reps", "2", "--seed", "3",
    ]

    def test_sweep_without_cache(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep: synchronous" in out
        assert "4 runs (4 executed, 0 cached)" in out

    def test_sweep_second_invocation_fully_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "4 runs (0 executed, 4 cached)" in second
        # Identical aggregated table either way.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]

    def test_sweep_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "unknown-target"])


class TestTraceCommands:
    def test_demo_trace_then_metrics_then_view(self, tmp_path, capsys):
        trace = tmp_path / "demo.jsonl"
        code = main(
            ["demo", "--n", "200", "--k", "3", "--alpha", "2.0",
             "--asynchronous", "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        assert trace.stat().st_size > 0

        report_md = tmp_path / "metrics.md"
        assert main(["trace-metrics", str(trace), "--out", str(report_md)]) == 0
        out = capsys.readouterr().out
        assert "population curve" in out
        assert "aging-phase timeline" in out
        assert "population curve" in report_md.read_text()

        html = tmp_path / "view.html"
        assert main(["trace-view", str(trace), "--out", str(html)]) == 0
        capsys.readouterr()
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_sweep_trace_writes_per_run_files(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        code = main(
            ["sweep", "synchronous", "--grid", "n=100,200", "--set", "k=2",
             "--set", "alpha=2.0", "--no-cache", "--trace", str(traces)]
        )
        capsys.readouterr()
        assert code == 0
        assert len(list(traces.glob("*.jsonl"))) == 2

    def test_trace_metrics_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["trace-metrics", str(tmp_path / "missing.jsonl")])


class TestMetricsFlag:
    def test_demo_metrics_writes_snapshot(self, tmp_path, capsys):
        import json

        snap = tmp_path / "m.json"
        code = main(
            ["demo", "--n", "400", "--k", "3", "--alpha", "2.0", "--seed", "1",
             "--metrics", str(snap)]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(snap.read_text())
        assert data["counters"]["sync.runs"] == 1
        assert data["counters"]["sync.rounds"] >= 1

    def test_demo_async_metrics_covers_engine_and_protocol(self, tmp_path, capsys):
        import json

        snap = tmp_path / "m.json"
        code = main(
            ["demo", "--n", "300", "--k", "3", "--alpha", "2.0", "--seed", "1",
             "--asynchronous", "--metrics", str(snap)]
        )
        capsys.readouterr()
        assert code == 0
        counters = json.loads(snap.read_text())["counters"]
        assert counters["protocol.runs.single_leader"] == 1
        assert counters["engine.events_executed"] > 0

    def test_sweep_metrics_cold_then_warm_cache(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "runs")
        args = ["sweep", "synchronous", "--grid", "n=100,200", "--set", "k=2",
                "--set", "alpha=2.0", "--cache-dir", cache_dir]
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        assert main(args + ["--metrics", str(cold)]) == 0
        assert main(args + ["--metrics", str(warm)]) == 0
        capsys.readouterr()
        cold_counters = json.loads(cold.read_text())["counters"]
        warm_counters = json.loads(warm.read_text())["counters"]
        assert cold_counters["sweep.cache.misses"] == 2
        assert cold_counters["sweep.runs_executed"] == 2
        assert warm_counters["sweep.cache.hits"] == 2
        assert warm_counters["sweep.runs_cached"] == 2
        assert warm_counters["sweep.cache.misses"] == 0
        # Cold run executed targets in-process → protocol counters rode in.
        assert cold_counters["sync.runs"] == 2

    def test_demo_sharded_metrics_carries_shard_instruments(self, tmp_path, capsys):
        import json

        snap = tmp_path / "m.json"
        code = main(
            ["demo", "--n", "400", "--k", "3", "--alpha", "2.0", "--seed", "1",
             "--shards", "2", "--metrics", str(snap)]
        )
        capsys.readouterr()
        assert code == 0
        data = json.loads(snap.read_text())
        assert data["gauges"]["shard.workers"] == 2
        assert data["histograms"]["shard.barrier_wait_seconds"]["count"] > 0


class TestCacheCommand:
    def test_stats_and_gc_dry_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        main(
            ["sweep", "synchronous", "--grid", "n=100", "--set", "k=2",
             "--cache-dir", cache_dir]
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        (tmp_path / "runs" / ("0" * 64 + ".json")).write_text("garbage")
        assert main(["cache", "gc", "--dry-run", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "would delete 1" in out
        assert (tmp_path / "runs" / ("0" * 64 + ".json")).exists()
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        assert "deleted 1" in capsys.readouterr().out
        assert not (tmp_path / "runs" / ("0" * 64 + ".json")).exists()


class TestReproduceCache:
    def test_reproduce_uses_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        args = ["reproduce", "--only", "fig1", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestReportFlag:
    def test_demo_report_sync(self, capsys):
        code = main(["demo", "--n", "5000", "--k", "3", "--alpha", "2.0",
                     "--seed", "1", "--report"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# synchronous run")
        assert "## Generations" in out

    def test_demo_report_async(self, capsys):
        code = main(["demo", "--n", "400", "--k", "3", "--alpha", "2.0",
                     "--seed", "1", "--asynchronous", "--report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "## Telemetry" in out


class TestSupervisedSweep:
    """CLI surface of the fault-tolerance layer (PR 9)."""

    def test_supervised_failure_exits_3_with_table(self, tmp_path, capsys):
        code = main(
            ["sweep", "chaos", "--grid", "mode=ok,raise",
             "--max-retries", "0", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "failed runs (1)" in out
        assert "RuntimeError" in out
        # The healthy grid point still aggregated, with the failure
        # annotated in its own column.
        assert "failed" in out

    def test_state_dir_then_resume_without_target(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        metrics_a = tmp_path / "a.json"
        metrics_b = tmp_path / "b.json"
        base = ["--set", "k=2", "--set", "alpha=2.0", "--no-cache"]
        code = main(
            ["sweep", "synchronous", "--grid", "n=150,250", *base,
             "--state-dir", state, "--metrics", str(metrics_a)]
        )
        assert code == 0
        capsys.readouterr()
        # --resume DIR needs no target: the spec lives in the manifest.
        code = main(
            ["sweep", "--resume", state, "--no-cache", "--metrics", str(metrics_b)]
        )
        assert code == 0
        import json

        first = json.loads(metrics_a.read_text())["counters"]
        second = json.loads(metrics_b.read_text())["counters"]
        assert first["sweep.runs_executed"] == 2
        assert second["sweep.runs_executed"] == 0
        assert second["sweep.runs_resumed"] == 2

    def test_resume_with_corrupt_manifest_exits_2(self, tmp_path, capsys):
        state = tmp_path / "state"
        state.mkdir()
        (state / "manifest.json").write_text("{not json")
        code = main(["sweep", "--resume", str(state), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert "corrupt" in err

    def test_resume_missing_manifest_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "--resume", str(tmp_path / "nowhere"), "--no-cache"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "no readable sweep manifest" in err

    @pytest.mark.slow
    def test_chaos_smoke_command(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out


class TestErrorBoundary:
    """A ConfigurationError from any command is one line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--n", "3", "--k", "8"],
            ["demo", "--asynchronous", "--n", "3", "--k", "8"],
            ["demo", "--asynchronous", "--shards", "2"],
            ["sweep", "--no-cache"],
            ["sweep", "single_leader", "--set", "drop=1.5", "--no-cache"],
            ["sweep", "voter", "--set", "n=200", "--set", "shards=abc", "--no-cache"],
            ["sweep", "voter", "--set", "n=200", "--set", "shards=2.5", "--no-cache"],
            [
                "sweep", "population", "--set", "n=200", "--set", "check_every=0",
                "--no-cache",
            ],
            ["sweep", "three_majority", "--set", "n=60", "--set", "drop=1.5", "--no-cache"],
            ["sweep", "population", "--set", "n=60", "--set", "drop=1.5", "--no-cache"],
            ["sweep", "population", "--set", "protocol=bogus", "--no-cache"],
        ],
        ids=[
            "demo-sync", "demo-async", "demo-shards", "sweep-no-target",
            "sweep-bad-knob", "sweep-shards-not-int", "sweep-shards-fraction",
            "sweep-check-every-zero", "sweep-baseline-drop", "sweep-population-drop",
            "sweep-population-protocol",
        ],
    )
    def test_configuration_error_is_one_line_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    def test_reproduce_unknown_only_name_runs_nothing(self, tmp_path, capsys):
        # fig1 comes first: checked late, it ran and was cached before the
        # unknown name failed.
        cache_dir = tmp_path / "runs"
        argv = ["reproduce", "--only", "fig1", "nosuch", "--cache-dir", str(cache_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown experiment 'nosuch'")
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.rglob("*.json")) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "single_leader", "--set", "max_time=-1"],
            ["sweep", "single_leader", "--set", "epsilon=1.5"],
            ["sweep", "single_leader", "--set", "epsilon=-0.5"],
            ["sweep", "single_leader", "--set", "max_time=nan"],
            ["sweep", "multileader", "--set", "clustering_max_time=-1"],
            ["sweep", "multileader", "--set", "max_time=-1"],
            ["sweep", "multileader", "--set", "epsilon=1.5"],
        ],
        ids=[
            "single-leader-negative-max-time", "single-leader-epsilon-above-1",
            "single-leader-negative-epsilon", "single-leader-nan-max-time",
            "multileader-negative-clustering-max-time", "multileader-negative-max-time",
            "multileader-epsilon-above-1",
        ],
    )
    def test_bad_run_budget_starts_no_run(self, argv, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(runner, "execute_run", no_run)
        assert main([*argv, "--set", "n=50", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["single_leader", "--set", "drop=1.5"],
            ["single_leader", "--set", "gamma=2"],
            ["single_leader", "--set", "latency_rate=-1"],
            ["single_leader", "--set", "stragglers=1.5"],
            ["single_leader", "--set", "n=1"],
            ["multileader", "--set", "latency_rate=-1"],
            ["multileader", "--set", "drop=1.5"],
            ["multileader", "--set", "n=1"],
            ["synchronous", "--set", "gamma=2"],
            ["synchronous", "--set", "drop=1.5"],
            ["synchronous", "--set", "churn=-1"],
            ["synchronous", "--set", "n=1"],
            ["voter", "--set", "drop=1.5"],
            ["two_choices", "--set", "churn=-1"],
            ["three_majority", "--set", "n=60", "--set", "drop=1.5"],
            ["undecided", "--set", "stragglers=1.5"],
            ["population", "--set", "drop=1.5"],
            ["population", "--set", "protocol=bogus"],
            ["voter", "--set", "n=1"],
            ["population", "--set", "k=3"],
        ],
        ids=[
            "single-leader-drop", "single-leader-gamma", "single-leader-latency-rate",
            "single-leader-stragglers", "single-leader-n", "multileader-latency-rate",
            "multileader-drop", "multileader-n", "synchronous-gamma", "synchronous-drop",
            "synchronous-churn", "synchronous-n", "voter-drop", "two-choices-churn",
            "three-majority-drop", "undecided-stragglers", "population-drop",
            "population-protocol", "voter-n", "population-k",
        ],
    )
    def test_bad_run_knob_starts_no_run_on_workers(self, argv, capsys, monkeypatch):
        # Without the up-front check each run fails in a pool worker and
        # the sweep ends in a failed-runs table with exit 3.
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(runner, "execute_run", no_run)
        assert main(["sweep", *argv, "--workers", "2", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    def test_demo_impossible_workload_has_no_traceback(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "demo", "--n", "3", "--k", "8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestCacheGcMaxBytes:
    def test_gc_max_bytes_evicts_lru(self, tmp_path, capsys):
        import os as os_module

        cache_dir = str(tmp_path / "runs")
        main(
            ["sweep", "synchronous", "--grid", "n=100,200", "--set", "k=2",
             "--cache-dir", cache_dir]
        )
        capsys.readouterr()
        entries = sorted((tmp_path / "runs").glob("*.json"))
        assert len(entries) == 2
        # Make LRU order deterministic, then squeeze to one entry's size.
        os_module.utime(entries[0], (1_000_000, 1_000_000))
        budget = entries[1].stat().st_size
        assert main(
            ["cache", "gc", "--cache-dir", cache_dir, "--max-bytes", str(budget)]
        ) == 0
        out = capsys.readouterr().out
        assert "deleted 1" in out
        assert "KiB" in out
        assert len(list((tmp_path / "runs").glob("*.json"))) == 1
