"""Chaos harness: fault injection against the supervised sweep runner.

Every test here injects a real fault — a worker raising, SIGKILLing
itself or one of its shard workers, hanging, or on-disk state corrupted
between invocations — and
asserts the supervision contract: the sweep completes, retried runs are
byte-identical to unfaulted ones (same content-addressed RNG
substream), failures are isolated and counted exactly, and interrupted
sweeps resume executing only the remainder.

The ``chaos`` sweep target misbehaves exactly once per mode: flaky
modes create a marker file *before* faulting, so the retry (and any
later comparison sweep) runs clean.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

import repro.shard.dynamics as shard_dynamics
from repro.engine.metrics import MetricsRegistry
from repro.errors import ConfigurationError
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.supervisor import MANIFEST_NAME, SupervisorPolicy, SweepManifest

#: Snappy backoff so retry-heavy tests stay inside the tier-1 budget.
FAST_POLICY = SupervisorPolicy(max_retries=2, backoff_base=0.02, backoff_max=0.1)


def chaos_spec(tmp_path, modes, name="chaos-test", **base):
    return SweepSpec(
        target="chaos",
        base={"marker_dir": str(tmp_path / "markers"), **base},
        grid={"mode": list(modes)},
        repetitions=1,
        seed=0,
        name=name,
    )


def strip_wall_time(record):
    return {k: v for k, v in record.items() if k != "wall_time"}


class TestRetryByteIdentity:
    def test_flaky_raise_retries_to_the_unfaulted_record(self, tmp_path):
        spec = chaos_spec(tmp_path, ["ok", "flaky_raise"])
        metrics = MetricsRegistry()
        report = run_sweep(
            spec, workers=1, supervisor=FAST_POLICY, metrics=metrics
        )
        assert report.succeeded and report.retries == 1
        counters = metrics.snapshot()["counters"]
        assert counters["sweep.retries"] == 1
        assert counters["sweep.failures"] == 0
        # Markers persist, so the same spec now runs fault-free; the
        # retried record must match byte-for-byte (modulo wall clock).
        clean = run_sweep(spec, workers=1)
        assert [strip_wall_time(r) for r in report.records] == [
            strip_wall_time(r) for r in clean.records
        ]


class TestFailureIsolation:
    def test_always_raising_config_is_isolated(self, tmp_path):
        spec = chaos_spec(tmp_path, ["ok", "raise"])
        policy = SupervisorPolicy(max_retries=1, backoff_base=0.02, backoff_max=0.1)
        metrics = MetricsRegistry()
        report = run_sweep(spec, workers=1, supervisor=policy, metrics=metrics)
        assert not report.succeeded
        [failure] = report.failures
        assert failure.kind == "error"
        assert failure.params["mode"] == "raise"
        assert failure.attempts == policy.attempts
        assert "configured to fail" in failure.error
        # The healthy config still produced its record; the failed slot
        # is None, exactly where the aggregate annotates.
        by_mode = {
            config.params_dict["mode"]: record
            for config, record in zip(report.configs, report.records)
        }
        assert by_mode["ok"] is not None and by_mode["raise"] is None
        counters = metrics.snapshot()["counters"]
        assert counters["sweep.failures"] == 1
        assert counters["sweep.retries"] == policy.max_retries

    def test_aggregate_annotates_failures(self, tmp_path):
        from repro.sweep.aggregate import aggregate_table

        spec = chaos_spec(tmp_path, ["ok", "raise"])
        policy = SupervisorPolicy(max_retries=0, backoff_base=0.02)
        report = run_sweep(spec, workers=1, supervisor=policy)
        table = aggregate_table(spec, report.records)
        assert "failed" in table.headers
        rendered = table.render()
        assert "raise" in rendered


@pytest.mark.slow
class TestKillHangMatrix:
    def test_kill_hang_raise_matrix_counts_exactly(self, tmp_path):
        """The full fault matrix: SIGKILL, hang, and a deterministic bug
        in one sweep — completes, counts each fault exactly once, and
        recovered records match the unfaulted sweep byte-for-byte."""
        modes = ["ok", "flaky_raise", "flaky_kill", "flaky_hang", "raise"]
        spec = chaos_spec(tmp_path, modes)
        policy = SupervisorPolicy(
            max_retries=2, run_timeout=2.0, backoff_base=0.05, backoff_max=0.25
        )
        metrics = MetricsRegistry()
        report = run_sweep(
            spec, workers=1, supervisor=policy, metrics=metrics,
            state_dir=str(tmp_path / "state"),
        )
        counters = metrics.snapshot()["counters"]
        # raise burns its whole budget (2 retries); each flaky mode
        # faults once then its marker disarms it (3 more retries).
        assert counters["sweep.retries"] == policy.max_retries + 3
        assert counters["sweep.timeouts"] == 1
        assert counters["sweep.failures"] == 1
        assert counters["sweep.pool_rebuilds"] >= 2  # kill + hang
        [failure] = report.failures
        assert failure.params["mode"] == "raise" and failure.kind == "error"
        clean = run_sweep(
            chaos_spec(tmp_path, [m for m in modes if m != "raise"]), workers=1
        )
        recovered = {
            c.params_dict["mode"]: strip_wall_time(r)
            for c, r in zip(report.configs, report.records)
            if r is not None
        }
        baseline = {
            c.params_dict["mode"]: strip_wall_time(r)
            for c, r in zip(clean.configs, clean.records)
        }
        assert recovered == baseline


def chunk_spec(tmp_path, mode, victim, **base):
    """24 runs: ``ok`` then ``mode`` at ``work`` 0..11, with ``mode``
    armed only at ``work=victim``.

    On 2 workers the supervisor deals the 24 runs round-robin into 8
    chunks of 3, so with ``victim=1`` the faulting run (index 13) sits
    in the middle of the chunk [5, 13, 21], after a run its worker has
    already finished.
    """
    markers = tmp_path / "markers"
    markers.mkdir(exist_ok=True)
    for work in range(12):
        if work != victim:
            (markers / f"{mode}-{work}.marker").touch()
    return SweepSpec(
        target="chaos",
        base={"marker_dir": str(markers), **base},
        grid={"mode": ["ok", mode], "work": list(range(12))},
        repetitions=1,
        seed=0,
        name=f"chunk-{mode}",
    )


def charged_runs(lines):
    """Run indices the supervisor charged, from its echo lines."""
    return [int(line.split()[2]) for line in lines if "retrying" in line]


def assert_clean_records(spec, report):
    clean = run_sweep(spec, workers=1)
    assert [strip_wall_time(r) for r in report.records] == [
        strip_wall_time(r) for r in clean.records
    ]


class TestChunkAttribution:
    """A fault inside a chunk is charged to its own run only; runs the
    chunk finished are kept, the rest are refunded and rerun."""

    def test_kill_mid_chunk_charges_only_the_killed_run(self, tmp_path):
        spec = chunk_spec(tmp_path, "flaky_kill", victim=1)
        lines: list[str] = []
        metrics = MetricsRegistry()
        report = run_sweep(
            spec, workers=2, supervisor=FAST_POLICY, metrics=metrics,
            echo=lines.append,
        )
        counters = metrics.snapshot()["counters"]
        assert report.retries == 1 and counters["sweep.retries"] == 1
        assert counters["sweep.failures"] == 0 and report.succeeded
        assert counters["sweep.pool_rebuilds"] == 1
        assert charged_runs(lines) == [13]
        assert_clean_records(spec, report)

    def test_kill_mid_chunk_keeps_the_finished_chunk_mate(self, tmp_path):
        """Run 5 finished before its worker died on run 13: it is
        checkpointed ``done`` and never submitted again."""
        spec = chunk_spec(tmp_path, "flaky_kill", victim=1)
        state = tmp_path / "state"
        report = run_sweep(
            spec, workers=2, supervisor=FAST_POLICY, state_dir=str(state)
        )
        assert report.succeeded and report.retries == 1
        entries = SweepManifest.load(state).entries
        assert (entries[5]["state"], entries[5]["attempts"]) == ("done", 1)
        assert (entries[13]["state"], entries[13]["attempts"]) == ("done", 2)
        assert_clean_records(spec, report)

    def test_interrupt_checkpoints_finished_chunk_mates(self, tmp_path):
        """Ctrl-C while run 13 hangs: run 5, which its chunk finished, is
        in the manifest, and a resume executes only what is not."""
        import signal

        spec = chunk_spec(tmp_path, "flaky_hang", victim=1, hang_seconds=5.0)
        hung = tmp_path / "markers" / "flaky_hang-1.marker"
        state = tmp_path / "state"

        def interrupt(signum, frame):
            if hung.exists():  # the hang has begun: run 5 is finished
                raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(
                    spec, workers=2, supervisor=FAST_POLICY, state_dir=str(state)
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        done = SweepManifest.load(state).done_indices()
        assert 5 in done and 13 not in done
        report = run_sweep(
            spec, workers=2, supervisor=FAST_POLICY, state_dir=str(state),
            resume=True,
        )
        assert report.resumed == len(done)
        assert report.executed == len(spec.expand()) - len(done)
        assert report.succeeded and report.retries == 0
        assert_clean_records(spec, report)

    @pytest.mark.slow
    def test_hang_mid_chunk_charges_only_the_hung_run(self, tmp_path):
        spec = chunk_spec(tmp_path, "flaky_hang", victim=1)
        policy = SupervisorPolicy(
            max_retries=2, run_timeout=1.0, backoff_base=0.02, backoff_max=0.1
        )
        lines: list[str] = []
        metrics = MetricsRegistry()
        report = run_sweep(
            spec, workers=2, supervisor=policy, metrics=metrics,
            echo=lines.append,
        )
        counters = metrics.snapshot()["counters"]
        assert report.timeouts == 1 and counters["sweep.timeouts"] == 1
        assert report.retries == 1 and report.succeeded
        assert charged_runs(lines) == [13]
        assert_clean_records(spec, report)

    def test_kill_charges_only_the_dead_workers_run(self, tmp_path):
        """The executor SIGTERMs the surviving worker mid-run when the
        pool breaks; that run is refunded, not charged a crash."""
        markers = tmp_path / "markers"
        markers.mkdir()
        for mode in ("flaky_hang", "flaky_kill"):
            (markers / f"{mode}-1.marker").touch()
        # Four one-run chunks: run 0 sleeps 1.5 s on one worker while
        # the other runs 1, then 2, which SIGKILLs it.
        spec = SweepSpec(
            target="chaos",
            base={"marker_dir": str(markers), "hang_seconds": 1.5},
            grid={"mode": ["flaky_hang", "flaky_kill"], "work": [0, 1]},
            repetitions=1,
            seed=0,
        )
        lines: list[str] = []
        report = run_sweep(
            spec, workers=2, supervisor=FAST_POLICY, echo=lines.append
        )
        assert report.succeeded and report.retries == 1
        assert charged_runs(lines) == [2]


class KillingKernel(shard_dynamics.DynamicsKernel):
    """SIGKILLs its shard worker at the third ``advance``, once per marker.

    The marker is created with ``open(..., "x")`` before the kill, so one
    worker dies across every shard, run and retry of the sweep.
    """

    def __init__(self, dynamics, marker: str):
        super().__init__(dynamics)
        self.marker = marker
        self.calls = 0

    def advance(self, global_state, local_state, rng, flag):
        self.calls += 1
        if self.calls == 3:
            try:
                with open(self.marker, "x"):
                    pass
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().advance(global_state, local_state, rng, flag)


class TestShardWorkerKill:
    def test_killed_shard_worker_retries_to_the_unfaulted_record(self, tmp_path):
        """A shard worker dies mid-run: the harness raises in the sweep
        worker, the supervisor retries the whole run from the same
        substream, and the records match a clean serial sweep."""
        spec = SweepSpec(
            target="three_majority",
            base={"n": 600, "k": 3, "alpha": 1.5, "shards": 2},
            repetitions=2,
            seed=0,
            name="shard-kill",
        )
        marker = tmp_path / "shard-killed.marker"
        metrics = MetricsRegistry()
        original = shard_dynamics.DynamicsKernel
        # The pool forks, so its workers (and their shard workers)
        # inherit the swapped kernel.
        shard_dynamics.DynamicsKernel = lambda d: KillingKernel(d, str(marker))
        try:
            report = run_sweep(
                spec, workers=2, supervisor=FAST_POLICY, metrics=metrics
            )
        finally:
            shard_dynamics.DynamicsKernel = original
        assert marker.exists()
        counters = metrics.snapshot()["counters"]
        assert report.retries == 1 and counters["sweep.retries"] == 1
        assert counters["sweep.failures"] == 0 and report.succeeded
        assert_clean_records(spec, report)


class TestCheckpointResume:
    SPEC = SweepSpec(
        target="synchronous",
        base={"k": 2, "alpha": 2.0},
        grid={"n": [200, 400]},
        repetitions=2,
        seed=3,
    )

    def test_resume_executes_only_the_remainder(self, tmp_path):
        state = tmp_path / "state"
        first = MetricsRegistry()
        report = run_sweep(
            self.SPEC, workers=1, state_dir=str(state), metrics=first
        )
        assert report.succeeded
        assert first.snapshot()["counters"]["sweep.runs_executed"] == 4

        # Simulate an interruption: forget two completions.
        manifest = SweepManifest.load(state)
        for index in (1, 3):
            manifest.entries[index].update(state="pending", record=None, attempts=0)
        manifest.write()

        second = MetricsRegistry()
        resumed = run_sweep(
            self.SPEC, workers=1, state_dir=str(state), resume=True, metrics=second
        )
        counters = second.snapshot()["counters"]
        assert counters["sweep.runs_executed"] == 2
        assert counters["sweep.runs_resumed"] == 2
        assert resumed.resumed == 2
        # Content-addressed substreams: re-executed runs reproduce the
        # original records exactly.
        assert [strip_wall_time(r) for r in resumed.records] == [
            strip_wall_time(r) for r in report.records
        ]

    def test_resumed_runs_are_not_cache_hits(self, tmp_path):
        from repro.sweep.cache import RunCache

        state = tmp_path / "state"
        cache = RunCache(tmp_path / "cache")
        run_sweep(self.SPEC, cache=cache, workers=1, state_dir=str(state))
        manifest = SweepManifest.load(state)
        for index in (1, 3):
            manifest.entries[index].update(state="pending", record=None, attempts=0)
        manifest.write()

        metrics = MetricsRegistry()
        run_sweep(
            self.SPEC, cache=cache, workers=1, state_dir=str(state), resume=True,
            metrics=metrics,
        )
        counters = metrics.snapshot()["counters"]
        # Two entries come back from the manifest, two from the cache:
        # only the latter were cache lookups.
        assert counters["sweep.runs_resumed"] == 2
        assert counters["sweep.runs_cached"] == 2
        assert counters["sweep.cache.hits"] == 2
        assert counters["sweep.cache.misses"] == 0

    def test_full_resume_executes_nothing(self, tmp_path):
        state = tmp_path / "state"
        report = run_sweep(self.SPEC, workers=1, state_dir=str(state))
        metrics = MetricsRegistry()
        resumed = run_sweep(
            self.SPEC, workers=1, state_dir=str(state), resume=True, metrics=metrics
        )
        assert metrics.snapshot()["counters"]["sweep.runs_executed"] == 0
        assert resumed.records == report.records

    def test_resume_without_state_dir_is_an_error(self):
        with pytest.raises(ConfigurationError, match="state directory"):
            run_sweep(self.SPEC, workers=1, resume=True)


class TestCorruptState:
    def test_corrupt_manifest_fails_loudly(self, tmp_path):
        state = tmp_path / "state"
        run_sweep(
            chaos_spec(tmp_path, ["ok"]), workers=1,
            supervisor=FAST_POLICY, state_dir=str(state),
        )
        (state / MANIFEST_NAME).write_bytes(b"\x00garbage\xff")
        with pytest.raises(ConfigurationError, match="corrupt"):
            run_sweep(
                chaos_spec(tmp_path, ["ok"]), workers=1,
                state_dir=str(state), resume=True,
            )

    def test_corrupt_cache_entry_reexecutes_under_supervision(self, tmp_path):
        from repro.sweep.cache import RunCache

        cache = RunCache(tmp_path / "cache")
        spec = chaos_spec(tmp_path, ["ok"])
        first = run_sweep(spec, cache=cache, workers=1, supervisor=FAST_POLICY)
        [path] = list(cache.entry_paths())
        path.write_bytes(b"\xde\xad\xbe\xef not json")
        second = run_sweep(spec, cache=cache, workers=1, supervisor=FAST_POLICY)
        assert second.succeeded and second.executed == 1
        assert [strip_wall_time(r) for r in second.records] == [
            strip_wall_time(r) for r in first.records
        ]
        # The atomic re-put repaired the entry.
        assert json.loads(path.read_text())["version"] >= 1
