"""Building, loading and falling back from the compiled single-leader core.

The contract of :mod:`repro.core.fastcore`: a failed build means the
Python core runs with identical records; the cache never imports an
artifact whose bytes are not the ones it built; concurrent builders
both succeed; and a run inside the core still answers signals, so
timers fire and Ctrl-C interrupts it.
"""

from __future__ import annotations

import functools
import json
import signal
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import fastcore
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.metrics import MetricsRegistry
from repro.sweep.targets import get_target
from repro.workloads.opinions import biased_counts

needs_core = pytest.mark.skipif(
    fastcore.load() is None,
    reason="compiled core unavailable (no working C compiler); CI requires it",
)
needs_timer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
)


def target_record(metrics: MetricsRegistry) -> dict:
    rng = np.random.Generator(np.random.PCG64(7))
    return get_target("single_leader")({"n": 300, "k": 3, "alpha": 2.0}, rng, metrics=metrics)


def disable_compiler(monkeypatch, build_dir: Path) -> None:
    """Forget the loaded core and make every build fail (``CC=false``)."""
    real = sysconfig.get_config_var
    monkeypatch.setattr(fastcore, "_core", fastcore._UNLOADED)
    monkeypatch.setattr(fastcore, "_BUILD_DIR", build_dir)
    monkeypatch.setattr(
        fastcore.sysconfig, "get_config_var", lambda name: "false" if name == "CC" else real(name)
    )


def test_failed_build_runs_python_core_with_identical_record(tmp_path, monkeypatch):
    reference_metrics = MetricsRegistry()
    reference = target_record(reference_metrics)
    reference_core = "c" if fastcore.load() is not None else "python"
    assert reference_metrics.snapshot()["counters"][f"engine.core.{reference_core}"] == 1

    disable_compiler(monkeypatch, tmp_path)
    metrics = MetricsRegistry()
    record = target_record(metrics)
    assert fastcore._core is None
    assert record == reference
    counters = metrics.snapshot()["counters"]
    assert counters["engine.core.python"] == 1
    assert "engine.core.c" not in counters


@needs_core
@pytest.mark.parametrize("damage", ["truncated", "foreign"])
def test_damaged_artifact_is_never_loaded(damage, tmp_path, monkeypatch):
    manifest = fastcore._manifest(fastcore._source())
    name = json.loads(manifest.read_text())["artifact"]
    data = (manifest.parent / name).read_bytes()
    copy = tmp_path / manifest.name
    copy.write_text(manifest.read_text())
    (tmp_path / name).write_bytes(data)
    assert fastcore._import(copy) is not None  # the intact copy loads

    if damage == "truncated":
        damaged = data[: len(data) // 2]
    else:
        # Still a loadable extension, just not the bytes that were built.
        damaged = data.replace(b"Compiled hot path", b"Compiled hot patH")
        assert damaged != data
    # A new file, not an in-place rewrite: the intact copy is mapped.
    (tmp_path / name).unlink()
    (tmp_path / name).write_bytes(damaged)
    disable_compiler(monkeypatch, tmp_path)
    assert fastcore.load() is None


@needs_core
def test_concurrent_builds_both_succeed(tmp_path):
    # Load the loader by path, so each process spends its time building.
    script = (
        "import importlib.util, sys\n"
        "from pathlib import Path\n"
        "spec = importlib.util.spec_from_file_location('fastcore_probe', sys.argv[1])\n"
        "fastcore = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(fastcore)\n"
        "fastcore._BUILD_DIR = Path(sys.argv[2])\n"
        "core = fastcore.load()\n"
        "print('built' if core is not None and hasattr(core, 'run') else 'fallback')\n"
    )
    command = [sys.executable, "-c", script, fastcore.__file__, str(tmp_path)]
    builders = [
        subprocess.Popen(command, stdout=subprocess.PIPE, text=True) for _ in range(2)
    ]
    outputs = [builder.communicate(timeout=300)[0].strip() for builder in builders]
    assert outputs == ["built", "built"]
    assert [builder.returncode for builder in builders] == [0, 0]
    # One manifest, naming an artifact that hashes to its digest; no
    # scratch directories left behind.
    manifests = sorted(tmp_path.glob("*.json"))
    assert len(manifests) == 1
    assert fastcore._import(manifests[0]) is not None
    assert not [path for path in tmp_path.iterdir() if path.is_dir()]


def test_build_py_tree_ships_every_core_source(tmp_path):
    # A non-editable install builds the cores from the copied sources;
    # one missing file means every run silently takes the Python cores.
    root = Path(__file__).resolve().parents[2]
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(tmp_path)],
        cwd=root, check=True, capture_output=True, timeout=120,
    )
    built = tmp_path / "repro" / "core"
    assert [name for name in fastcore._SOURCES if not (built / name).is_file()] == []


@functools.lru_cache(maxsize=None)
def long_run_params() -> SingleLeaderParams:
    # Deriving the time unit costs a matrix exponential; share it.
    return SingleLeaderParams(n=5000, k=4, alpha0=2.0)


def long_core_run() -> SingleLeaderSim:
    params = long_run_params()
    n, k, alpha = params.n, params.k, params.alpha0
    rng = np.random.Generator(np.random.PCG64(19))
    return SingleLeaderSim(params, biased_counts(n, k, alpha), rng)


class interval_timer:
    """Run ``handler`` on SIGALRM every ``interval`` seconds inside the block."""

    def __init__(self, handler, interval: float = 0.005):
        self.handler = handler
        self.interval = interval

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


@needs_core
@needs_timer
def test_timer_signal_fires_inside_core_run():
    frames = []
    sim = long_core_run()
    with interval_timer(lambda signum, frame: frames.append(frame.f_code.co_name)):
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    assert sim.core == "c"
    assert elapsed >= 0.05
    # The handler ran while the core held the loop (its Python caller
    # is the frame that called into C).
    assert "_run_core" in frames


@needs_core
@needs_timer
def test_keyboard_interrupt_propagates_out_of_core_run():
    def interrupt(signum, frame):
        signal.setitimer(signal.ITIMER_REAL, 0)  # one shot: Ctrl-C
        raise KeyboardInterrupt

    sim = long_core_run()
    with pytest.raises(KeyboardInterrupt) as excinfo, interval_timer(interrupt):
        sim.run()
    assert "_run_core" in [entry.name for entry in excinfo.traceback]
    # The core wrote back the state it had reached.
    assert sim.sim.events_executed > 0
