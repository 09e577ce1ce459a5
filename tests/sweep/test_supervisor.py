"""Unit tests for the sweep supervision layer (no process pools here).

Policy validation, deterministic backoff, failure serialization, and
the manifest's atomic state machine — the pool-driven fault paths live
in ``tests/chaos/``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweep.spec import SweepSpec
from repro.sweep.supervisor import (
    MANIFEST_NAME,
    RunFailure,
    SupervisorPolicy,
    SweepManifest,
    backoff_delay,
    failure_table,
)

SPEC = SweepSpec(
    target="synchronous",
    base={"k": 2, "alpha": 2.0},
    grid={"n": [200, 400]},
    repetitions=2,
    seed=3,
)


class TestSupervisorPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.attempts == policy.max_retries + 1
        assert policy.run_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"run_timeout": 0.0},
            {"run_timeout": -5.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(**kwargs)


class TestBackoffDelay:
    POLICY = SupervisorPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=8.0)

    def test_first_attempt_waits_nothing(self):
        assert backoff_delay(self.POLICY, "digest", 1) == 0.0

    def test_deterministic(self):
        a = backoff_delay(self.POLICY, "digest", 3)
        b = backoff_delay(self.POLICY, "digest", 3)
        assert a == b

    def test_jitter_stays_within_band(self):
        for attempt in (2, 3, 4):
            base = min(8.0, 1.0 * 2.0 ** (attempt - 2))
            delay = backoff_delay(self.POLICY, "some-digest", attempt)
            assert base * 0.5 <= delay <= base * 1.5

    def test_different_digests_desynchronize(self):
        delays = {backoff_delay(self.POLICY, f"digest-{i}", 3) for i in range(8)}
        assert len(delays) > 1

    def test_cap_applies(self):
        policy = SupervisorPolicy(
            backoff_base=1.0, backoff_factor=10.0, backoff_max=2.0, jitter=0.0
        )
        assert backoff_delay(policy, "d", 6) == 2.0


class TestRunFailure:
    FAILURE = RunFailure(
        index=4,
        digest="abc123",
        target="synchronous",
        params={"n": 100},
        kind="timeout",
        error="run exceeded budget\nsecond line",
        attempts=3,
    )

    def test_round_trip(self):
        assert RunFailure.from_dict(self.FAILURE.to_dict()) == self.FAILURE

    def test_summary_row_uses_last_error_line(self):
        row = self.FAILURE.summary_row()
        assert row[0] == 4 and row[2] == "timeout" and row[4] == "second line"

    def test_failure_table_renders(self):
        table = failure_table([self.FAILURE])
        rendered = table.render()
        assert "failed runs (1)" in rendered
        assert "timeout" in rendered


class TestSweepManifest:
    def test_create_marks_everything_pending(self, tmp_path):
        manifest = SweepManifest.create(tmp_path / "state", SPEC)
        assert (tmp_path / "state" / MANIFEST_NAME).exists()
        assert all(entry["state"] == "pending" for entry in manifest.entries)
        assert len(manifest.entries) == len(SPEC.expand())

    def test_load_round_trips(self, tmp_path):
        SweepManifest.create(tmp_path, SPEC)
        loaded = SweepManifest.load(tmp_path)
        assert loaded.spec.to_dict() == SPEC.to_dict()
        assert [e["digest"] for e in loaded.entries] == [
            c.digest for c in SPEC.expand()
        ]

    def test_transitions_persist(self, tmp_path):
        manifest = SweepManifest.create(tmp_path, SPEC)
        manifest.mark_running([0, 1])
        manifest.mark_done({0: {"value": 1.0}})
        manifest.mark_failed(1, kind="crash", error="boom", permanent=False)
        manifest.mark_failed(2, kind="error", error="bad", permanent=True)
        loaded = SweepManifest.load(tmp_path)
        assert loaded.state(0) == "done" and loaded.record(0) == {"value": 1.0}
        assert loaded.state(1) == "failed" and loaded.attempts(1) == 1
        assert loaded.state(2) == "permanently-failed"
        assert loaded.done_indices() == [0]

    def test_mark_done_rewrites_once_per_batch(self, tmp_path, monkeypatch):
        """Each rewrite carries every stored record, so a chunk's runs
        are checkpointed in one write, and an empty batch writes none."""
        manifest = SweepManifest.create(tmp_path, SPEC)
        writes: list[None] = []
        monkeypatch.setattr(manifest, "write", lambda: writes.append(None))
        manifest.mark_done({0: {"value": 1.0}, 2: {"value": 3.0}})
        manifest.mark_done({})
        assert len(writes) == 1
        assert manifest.done_indices() == [0, 2]

    def test_missing_manifest_fails_loudly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no readable sweep manifest"):
            SweepManifest.load(tmp_path / "nowhere")

    def test_corrupt_manifest_names_the_path(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ConfigurationError, match="corrupt") as excinfo:
            SweepManifest.load(tmp_path)
        assert MANIFEST_NAME in str(excinfo.value)

    def test_wrong_version_rejected(self, tmp_path):
        manifest = SweepManifest.create(tmp_path, SPEC)
        payload = manifest.to_dict()
        payload["version"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="unsupported"):
            SweepManifest.load(tmp_path)

    def test_digest_mismatch_rejected(self, tmp_path):
        manifest = SweepManifest.create(tmp_path, SPEC)
        manifest.entries[0]["digest"] = "0" * 64
        manifest.write()
        with pytest.raises(ConfigurationError, match="does not match"):
            SweepManifest.load(tmp_path)

    def test_open_resume_rejects_a_different_sweep(self, tmp_path):
        SweepManifest.create(tmp_path, SPEC)
        other = SweepSpec(
            target="synchronous", base={"k": 2, "alpha": 2.0},
            grid={"n": [999]}, repetitions=1, seed=3,
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            SweepManifest.open(tmp_path, other, resume=True)

    def test_open_fresh_requires_a_spec(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spec is required"):
            SweepManifest.open(tmp_path, None, resume=False)

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        manifest = SweepManifest.create(tmp_path, SPEC)
        manifest.mark_done({0: {"value": 2.0}})
        assert list(tmp_path.glob("*.tmp")) == []
