"""Tests for sweep execution: determinism, caching, parallel fan-out.

The acceptance-critical properties pinned here:

* serial and 4-worker sweeps produce **byte-identical** aggregated
  tables for the same seed;
* a second invocation of a cached sweep executes **zero** runs (and
  therefore zero simulator events);
* repetition results depend only on (seed, substream), never on
  execution order.
"""

from __future__ import annotations

import pytest

import repro.sweep.runner as runner_module
from repro.errors import ConfigurationError
from repro.sweep.aggregate import aggregate_table
from repro.sweep.cache import RunCache
from repro.sweep.runner import (
    execute_run,
    experiment_config,
    run_experiments,
    run_sweep,
)
from repro.sweep.spec import SweepSpec


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        target="synchronous",
        base={"k": 2, "alpha": 2.0},
        grid={"n": [100, 200]},
        repetitions=2,
        seed=3,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestExecuteRun:
    def test_same_config_same_record(self):
        config = small_spec().expand()[0].as_dict()
        first = execute_run(config)
        second = execute_run(config)
        first.pop("wall_time"), second.pop("wall_time")
        assert first == second

    def test_accepts_dict_and_runconfig(self):
        config = small_spec().expand()[0]
        from_obj = execute_run(config)
        from_dict = execute_run(config.as_dict())
        from_obj.pop("wall_time"), from_dict.pop("wall_time")
        assert from_obj == from_dict

    def test_unknown_target_raises(self):
        with pytest.raises(ConfigurationError, match="unknown sweep target"):
            execute_run(
                {"target": "nope", "params": {}, "seed": 0, "rep": 0}
            )


class TestRunSweep:
    def test_records_aligned_with_configs(self):
        report = run_sweep(small_spec())
        assert len(report.records) == report.spec.size
        assert report.executed == 4
        assert report.cached == 0
        assert all("elapsed" in record for record in report.records)

    def test_serial_and_parallel_tables_byte_identical(self):
        spec = small_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert parallel.workers == 4
        serial_table = aggregate_table(spec, serial.records).render()
        parallel_table = aggregate_table(spec, parallel.records).render()
        assert serial_table == parallel_table

    def test_cached_rerun_executes_nothing(self, tmp_path, monkeypatch):
        spec = small_spec()
        cache = RunCache(tmp_path / "runs")
        first = run_sweep(spec, cache=cache, workers=1)
        assert first.executed == spec.size

        # Second invocation must be satisfied entirely from the cache:
        # if any run (hence any simulator event) were executed, the
        # poisoned execute_run below would blow up.
        def poisoned(config):  # pragma: no cover - must never run
            raise AssertionError("cache miss: a run was re-executed")

        monkeypatch.setattr(runner_module, "execute_run", poisoned)
        second = run_sweep(spec, cache=cache, workers=1)
        assert second.executed == 0
        assert second.cached == spec.size

        table = aggregate_table(spec, first.records).render()
        assert aggregate_table(spec, second.records).render() == table

    def test_partial_cache_runs_only_misses(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "runs")
        configs = spec.expand()
        cache.put(configs[0].as_dict(), execute_run(configs[0]))
        report = run_sweep(spec, cache=cache)
        assert report.cached == 1
        assert report.executed == spec.size - 1

    def test_corrupt_cache_entry_reexecuted_and_repaired(self, tmp_path):
        spec = small_spec()
        cache = RunCache(tmp_path / "runs")
        run_sweep(spec, cache=cache)
        victim = cache.path_for(spec.expand()[0].as_dict())
        victim.write_text("{corrupt")
        report = run_sweep(spec, cache=cache)
        assert report.executed == 1
        assert cache.get(spec.expand()[0].as_dict()) is not None

    def test_cache_hits_across_overlapping_sweeps(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        run_sweep(small_spec(grid={"n": [100, 200]}), cache=cache)
        report = run_sweep(small_spec(grid={"n": [200, 300]}), cache=cache)
        assert report.cached == 2  # the n=200 runs carried over
        assert report.executed == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(small_spec(), workers=-2)

    def test_echo_reports_cache_state(self, tmp_path):
        lines: list[str] = []
        run_sweep(small_spec(), cache=RunCache(tmp_path / "r"), echo=lines.append)
        assert any("4 to run" in line for line in lines)

    def test_summary_mentions_counts(self):
        report = run_sweep(small_spec())
        assert "4 runs" in report.summary()
        assert "4 executed" in report.summary()


class TestFailureContract:
    """A parallel sweep with no policy runs a zero-retry supervisor; a
    serial one runs in-process and still fails fast."""

    SPEC = SweepSpec(
        target="chaos", base={}, grid={"mode": ["ok", "raise"]},
        repetitions=1, seed=0,
    )

    def test_parallel_raise_becomes_one_failure(self):
        report = run_sweep(self.SPEC, workers=2)
        [failure] = report.failures
        assert (failure.index, failure.kind, failure.attempts) == (1, "error", 1)
        assert "configured to fail" in failure.error
        assert report.records[0] is not None and report.records[1] is None
        assert report.retries == 0 and not report.succeeded

    def test_serial_raise_propagates(self):
        with pytest.raises(RuntimeError, match="configured to fail"):
            run_sweep(self.SPEC, workers=1)


class TestRunExperiments:
    def test_cache_round_trip_renders_identically(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        fresh = run_experiments(["fig1"], quick=True, seed=0, cache=cache)
        cached = run_experiments(["fig1"], quick=True, seed=0, cache=cache)
        assert not fresh[0].cached and cached[0].cached
        assert (
            cached[0].result.render(plot=False) == fresh[0].result.render(plot=False)
        )
        assert cached[0].result.render_markdown() == fresh[0].result.render_markdown()

    def test_experiment_config_includes_version(self):
        import repro

        config = experiment_config("fig1", quick=True, seed=0)
        assert config["version"] == repro.__version__
        assert config["kind"] == "experiment"
