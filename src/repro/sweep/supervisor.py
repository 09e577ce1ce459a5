"""Fault-tolerant sweep execution: supervision, retries, checkpoints.

Every run a sweep (:mod:`repro.sweep.runner`) sends to a process pool
goes through this module. The pieces:

* :class:`SupervisorPolicy` — per-run wall-clock timeout plus bounded
  retries with exponential backoff and *deterministic* jitter (a pure
  function of the config digest and attempt number).
* :func:`run_supervised` — submits cache misses to a process pool in
  chunks, each with a start log naming the run its worker is on and a
  results file keeping every run it finished; survives a dead or hung
  worker by charging only the run it was on, rebuilding the pool and
  resubmitting the unfinished rest; hands each run it settles to the
  caller's ``store`` callback as its chunk comes back, while the other
  chunks still run; and turns every exhausted config into a structured
  :class:`RunFailure` instead of an exception.
* :class:`SweepManifest` — a ``manifest.json`` checkpoint (atomic
  tmp+rename, like the run cache) of per-config state (``pending`` /
  ``running`` / ``done`` / ``failed`` / ``permanently-failed``),
  attempt counts and ``done`` records, written once per submitted or
  settled chunk, so ``repro sweep --resume DIR``
  executes only the remainder of an interrupted sweep.

Determinism under retry: a run's randomness is
``RngRegistry(seed).stream(config.stream)`` — a pure function of the
config, derived from scratch inside :func:`~repro.sweep.runner.execute_run`
on every attempt — so a retried run draws byte-identical randomness to
a first attempt. Retries repair *infrastructure* faults (killed or hung
workers); a deterministic simulation bug fails every attempt the same
way and surfaces as ``permanently-failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.sweep.spec import RunConfig, SweepSpec, config_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.spec import SweepSpec as _SweepSpec

__all__ = [
    "SupervisorPolicy",
    "RunFailure",
    "SweepManifest",
    "backoff_delay",
    "run_supervised",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: Per-config lifecycle states the manifest records. ``failed`` is the
#: transient between attempts; ``permanently-failed`` means the retry
#: budget is exhausted.
STATES = ("pending", "running", "done", "failed", "permanently-failed")

#: Supervisor poll cadence while waiting on futures (seconds).
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervised runner fights for each run.

    ``max_retries`` counts *re*-attempts: a run gets ``max_retries + 1``
    attempts total before it is recorded as permanently failed.
    ``run_timeout`` is wall-clock seconds measured from the moment the
    supervisor first sees the run start on a worker (queue time
    excluded); ``None`` disables timeout supervision. Backoff before
    attempt ``a >= 2`` is ``backoff_base * backoff_factor ** (a - 2)``
    capped at ``backoff_max``, spread by ``±jitter`` (a deterministic
    fraction — see :func:`backoff_delay`).
    """

    max_retries: int = 2
    run_timeout: float | None = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigurationError(
                f"run_timeout must be positive, got {self.run_timeout}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def attempts(self) -> int:
        """Total attempts each config is granted."""
        return self.max_retries + 1


@dataclass
class RunFailure:
    """One config's permanent failure, as recorded in sweep reports.

    ``kind`` distinguishes the failure surface: ``"error"`` (the target
    raised), ``"crash"`` (the worker process died — SIGKILL, OOM,
    hard exit), or ``"timeout"`` (the run exceeded the policy's
    wall-clock budget). ``error`` carries the last attempt's message or
    traceback summary.
    """

    index: int
    digest: str
    target: str
    params: dict
    kind: str
    error: str
    attempts: int

    def summary_row(self) -> list:
        """Row for the CLI failure table."""
        message = self.error.strip().splitlines()
        return [
            self.index,
            self.target,
            self.kind,
            self.attempts,
            message[-1][:72] if message else "",
        ]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "digest": self.digest,
            "target": self.target,
            "params": dict(self.params),
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunFailure":
        return cls(
            index=int(data["index"]),
            digest=str(data["digest"]),
            target=str(data["target"]),
            params=dict(data["params"]),
            kind=str(data["kind"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
        )


def backoff_delay(policy: SupervisorPolicy, digest: str, attempt: int) -> float:
    """Seconds to wait before launching attempt ``attempt`` (2-based).

    Exponential in the attempt number, capped, with jitter derived from
    ``sha256(digest:attempt)`` — deterministic, so a re-run of the same
    sweep produces the same schedule, yet different configs (different
    digests) de-synchronize instead of thundering back together.

    >>> p = SupervisorPolicy(backoff_base=1.0, backoff_factor=2.0, jitter=0.0)
    >>> [backoff_delay(p, "d", a) for a in (2, 3, 4)]
    [1.0, 2.0, 4.0]
    """
    if attempt <= 1:
        return 0.0
    base = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** (attempt - 2),
    )
    if policy.jitter == 0.0:
        return base
    word = hashlib.sha256(f"{digest}:{attempt}".encode()).digest()[:8]
    fraction = int.from_bytes(word, "big") / float(2**64)  # uniform-ish [0, 1)
    return base * (1.0 + policy.jitter * (2.0 * fraction - 1.0))


# --------------------------------------------------------------------------
# Manifest: the sweep's on-disk checkpoint.


class SweepManifest:
    """Per-config sweep state under ``<directory>/manifest.json``.

    The manifest is the resume unit: it stores the expanded spec (so
    ``repro sweep --resume DIR`` needs no other arguments), one entry
    per config in expansion order — state, attempt count, last error,
    and the completed record for ``done`` entries — and is rewritten
    atomically (tmp + ``os.replace``) on every transition, so a
    ``kill -9`` at any moment leaves a loadable checkpoint. Runs enter
    ``running`` and ``done`` a chunk at a time, one rewrite per chunk:
    each rewrite carries every stored record, so one per run would make
    a sweep's checkpointing quadratic in its length.
    """

    def __init__(self, directory: str | Path, spec: SweepSpec, entries: list[dict]):
        self.directory = Path(directory)
        self.path = self.directory / MANIFEST_NAME
        self.spec = spec
        self.entries = entries

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, directory: str | Path, spec: SweepSpec) -> "SweepManifest":
        """Fresh manifest: every config ``pending``, zero attempts."""
        configs = spec.expand()
        entries = [
            {
                "digest": config.digest,
                "state": "pending",
                "attempts": 0,
                "error": None,
                "kind": None,
                "record": None,
            }
            for config in configs
        ]
        manifest = cls(directory, spec, entries)
        manifest.directory.mkdir(parents=True, exist_ok=True)
        manifest.write()
        return manifest

    @classmethod
    def load(cls, directory: str | Path) -> "SweepManifest":
        """Load an existing manifest; corrupt or alien files fail loudly.

        Unlike cache entries — where corruption is recoverable by
        re-running one config — a corrupt manifest means the resume
        state is gone, and silently starting over would mask it.
        """
        path = Path(directory) / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot resume: no readable sweep manifest at {path} ({exc})"
            ) from None
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot resume: sweep manifest {path} is corrupt ({exc}); "
                "delete the state directory to start the sweep over"
            ) from None
        if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"cannot resume: sweep manifest {path} has an unsupported "
                f"layout (expected version {MANIFEST_VERSION})"
            )
        try:
            spec = SweepSpec.from_dict(payload["spec"])
            entries = list(payload["configs"])
            digests = [entry["digest"] for entry in entries]
            states = [entry["state"] for entry in entries]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"cannot resume: sweep manifest {path} is corrupt ({exc!r}); "
                "delete the state directory to start the sweep over"
            ) from None
        if any(state not in STATES for state in states):
            raise ConfigurationError(
                f"cannot resume: sweep manifest {path} contains unknown "
                "config states"
            )
        expected = [config.digest for config in spec.expand()]
        if digests != expected:
            raise ConfigurationError(
                f"cannot resume: sweep manifest {path} does not match its own "
                "spec expansion (corrupt entry list, or the library version "
                "changed since the manifest was written)"
            )
        return cls(directory, spec, entries)

    @classmethod
    def open(
        cls, directory: str | Path, spec: SweepSpec | None, *, resume: bool
    ) -> "SweepManifest":
        """The CLI entry: create fresh, or load-and-verify for resume.

        On resume with a ``spec`` given, the stored spec must expand to
        the same config digests — resuming a *different* sweep from a
        stale directory is an error, not a silent restart.
        """
        if resume:
            manifest = cls.load(directory)
            if spec is not None and [c.digest for c in spec.expand()] != [
                entry["digest"] for entry in manifest.entries
            ]:
                raise ConfigurationError(
                    f"cannot resume: the manifest under {directory} was written "
                    "by a different sweep (target/grid/seed mismatch)"
                )
            return manifest
        if spec is None:
            raise ConfigurationError("a sweep spec is required to start a new manifest")
        return cls.create(directory, spec)

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "spec": self.spec.to_dict(),
            "configs": self.entries,
        }

    def write(self) -> None:
        """Atomic rewrite — same tmp+rename discipline as the run cache."""
        payload = json.dumps(self.to_dict(), separators=(",", ":"), allow_nan=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- transitions -------------------------------------------------------

    def state(self, index: int) -> str:
        return self.entries[index]["state"]

    def attempts(self, index: int) -> int:
        return int(self.entries[index]["attempts"])

    def record(self, index: int) -> dict | None:
        """The stored record for a ``done`` entry (else ``None``)."""
        entry = self.entries[index]
        return entry["record"] if entry["state"] == "done" else None

    def done_indices(self) -> list[int]:
        return [i for i, entry in enumerate(self.entries) if entry["state"] == "done"]

    def mark_running(self, indices: Sequence[int]) -> None:
        for index in indices:
            entry = self.entries[index]
            entry["state"] = "running"
            entry["attempts"] = int(entry["attempts"]) + 1
        if indices:
            self.write()

    def mark_done(self, records: Mapping[int, Mapping[str, Any]]) -> None:
        for index, record in records.items():
            entry = self.entries[index]
            entry.update(state="done", record=dict(record), error=None, kind=None)
        if records:
            self.write()

    def mark_failed(
        self, index: int, *, kind: str, error: str, permanent: bool
    ) -> None:
        entry = self.entries[index]
        entry.update(
            state="permanently-failed" if permanent else "failed",
            kind=kind,
            error=error,
        )
        self.write()


# --------------------------------------------------------------------------
# Supervised pool execution.


def _run_chunk(log: str, items: Sequence[tuple]) -> None:
    """Pool entry: run one chunk of ``(config, trace_path, metrics_path)`` units.

    Before each run the worker appends ``"<pid> <position>"`` to the
    chunk's start log in one unbuffered write, naming the run a dead or
    hung worker was on (``future.running()`` cannot: a future turns
    RUNNING in the call queue). After each run it appends the pickled
    ``(position, ok, record or error)`` to ``<log>.out``, so finished
    runs outlive their chunk. Each run's exception is caught alone.
    """
    from repro.sweep.runner import execute_run

    fd = os.open(log, os.O_WRONLY | os.O_APPEND)
    out = os.open(log + ".out", os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
    try:
        for position, (config, trace_path, metrics_path) in enumerate(items):
            os.write(fd, b"%d %d\n" % (os.getpid(), position))
            try:
                outcome = (True, execute_run(config, trace_path, metrics_path))
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                outcome = (False, f"{type(exc).__name__}: {exc}")
            os.write(out, pickle.dumps((position, *outcome)))
    finally:
        os.close(fd)
        os.close(out)


def _log_tail(log: str) -> tuple[int, int] | None:
    """``(pid, position)`` of a start log's last entry; ``None`` while empty."""
    with open(log, "rb") as handle:
        words = handle.read().split()
    return (int(words[-2]), int(words[-1])) if words else None


def _finished(log: str) -> dict[int, tuple[bool, Any]]:
    """``position -> (ok, record or error)`` per run a chunk finished."""
    finished = {}
    try:
        with open(log + ".out", "rb") as handle:
            while True:
                position, ok, value = pickle.load(handle)
                finished[position] = (ok, value)
    except (OSError, EOFError, pickle.UnpicklingError):
        pass
    return finished


@dataclass
class SupervisionOutcome:
    """What :func:`run_supervised` hands back to the sweep runner."""

    records: dict[int, dict]
    failures: list[RunFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0


@dataclass
class _Attempt:
    """Book-keeping for one config inside the supervision loop."""

    index: int
    config: RunConfig
    attempt: int = 0
    eligible_at: float = 0.0


@dataclass(eq=False)
class _Chunk:
    """One submitted chunk: its attempts in order, and its start log."""

    attempts: list[_Attempt]
    log: str
    #: The last start-log entry seen, and when it was first seen.
    tail: tuple[int, int] | None = None
    seen_at: float = 0.0


def run_supervised(
    configs: Sequence[RunConfig],
    indices: Sequence[int],
    policy: SupervisorPolicy,
    *,
    workers: int,
    trace_paths: Sequence[str | None],
    metrics_paths: Sequence[str | None],
    echo: Callable[[str], None] | None = None,
    manifest: SweepManifest | None = None,
    store: Callable[[int, dict], None] | None = None,
) -> SupervisionOutcome:
    """Execute ``indices`` of ``configs`` on a process pool, under supervision.

    Ready configs are dealt round-robin into ``min(ready, 4·workers)``
    chunks, all submitted at once, so heavy and light grid points mix
    in every chunk; each chunk is one pool task (:func:`_run_chunk`).
    Every config gets ``policy.attempts`` attempts, with deterministic
    backoff between them. A run that raises is charged an ``error``
    alone. Every run a chunk finished is kept whatever becomes of the
    chunk, also on interrupt: it is passed to ``store(index, record)``
    and checkpointed ``done`` in ``manifest`` when the chunk settles,
    so records are stored while the other chunks still run.

    A dying worker breaks the pool and every unfinished chunk. The
    crash is charged to the run named by the last entry of a broken
    chunk's start log, counting only logs of a worker that died on its
    own when there are any (the executor SIGTERMs the survivors); with
    no entry anywhere, to the first run of each of the earliest
    ``workers`` chunks. A run whose start-log position has not moved
    for ``policy.run_timeout`` seconds is charged a ``timeout`` and the
    pool killed. Either way every other unfinished run is refunded its
    attempt and resubmitted on a rebuilt pool. Never raises for
    run-level faults.
    """
    import shutil
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    outcome = SupervisionOutcome(records={})
    pending: dict[int, _Attempt] = {
        index: _Attempt(index=index, config=configs[index]) for index in indices
    }
    if not pending:
        return outcome
    waiting = set(pending)  # unresolved and not in flight

    def _say(line: str) -> None:
        if echo is not None:
            echo(line)

    def _record_failure(attempt: _Attempt, *, kind: str, error: str) -> None:
        """Charge a failed attempt; retry or fail permanently."""
        if kind == "timeout":
            outcome.timeouts += 1
        if attempt.attempt < policy.attempts:
            outcome.retries += 1
            attempt.eligible_at = time.monotonic() + backoff_delay(
                policy, attempt.config.digest, attempt.attempt + 1
            )
            waiting.add(attempt.index)
            if manifest is not None:
                manifest.mark_failed(
                    attempt.index, kind=kind, error=error, permanent=False
                )
            _say(
                f"[sweep] run {attempt.index} {kind} "
                f"(attempt {attempt.attempt}/{policy.attempts}); retrying"
            )
            return
        config = attempt.config
        outcome.failures.append(
            RunFailure(
                index=attempt.index,
                digest=config.digest,
                target=config.target,
                params=config.params_dict,
                kind=kind,
                error=error,
                attempts=attempt.attempt,
            )
        )
        if manifest is not None:
            manifest.mark_failed(attempt.index, kind=kind, error=error, permanent=True)
        del pending[attempt.index]
        _say(
            f"[sweep] run {attempt.index} permanently failed after "
            f"{attempt.attempt} attempt(s): {kind}"
        )

    def _refund(attempt: _Attempt) -> None:
        """Undo the attempt of a run a pool break or kill took down uncharged."""
        attempt.attempt -= 1
        attempt.eligible_at = 0.0
        waiting.add(attempt.index)

    def _settle(chunk: _Chunk) -> list[int]:
        """Settle the runs ``chunk`` finished; the positions it did not."""
        finished = _finished(chunk.log)
        unfinished = []
        done = {}
        for position, attempt in enumerate(chunk.attempts):
            if position not in finished:
                unfinished.append(position)
                continue
            ok, value = finished[position]
            if not ok:
                _record_failure(attempt, kind="error", error=value)
                continue
            outcome.records[attempt.index] = value
            if store is not None:
                store(attempt.index, value)
            done[attempt.index] = value
            del pending[attempt.index]
        if manifest is not None:
            manifest.mark_done(done)
        return unfinished

    def _submit(pool, ready: list[int]) -> None:
        count = min(len(ready), 4 * workers)
        for offset in range(count):
            attempts = [pending[index] for index in ready[offset::count]]
            fd, log = tempfile.mkstemp(dir=log_dir, suffix=".log")
            os.close(fd)
            items = [
                (a.config.as_dict(), trace_paths[a.index], metrics_paths[a.index])
                for a in attempts
            ]
            try:
                future = pool.submit(_run_chunk, log, items)
            except BrokenProcessPool:
                if not inflight:  # no chunk of ours broke it
                    raise
                # A worker died mid-loop: the rest wait for the rebuild
                # its broken chunk triggers.
                waiting.update(i for o in range(offset, count) for i in ready[o::count])
                return
            inflight[future] = _Chunk(attempts, log)
            for attempt in attempts:
                attempt.attempt += 1
            if manifest is not None:
                manifest.mark_running([attempt.index for attempt in attempts])

    log_dir = tempfile.mkdtemp(prefix="repro-supervise-")
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: dict[Any, _Chunk] = {}  # in submission order
    try:
        while pending:
            now = time.monotonic()
            ready = sorted(i for i in waiting if pending[i].eligible_at <= now)
            if ready:
                waiting.difference_update(ready)
                _submit(pool, ready)
            if not inflight:
                # Everything left is backing off; sleep to the earliest.
                wake = min(pending[i].eligible_at for i in waiting)
                time.sleep(max(0.0, min(wake - time.monotonic(), _POLL_SECONDS * 4)))
                continue

            polling = policy.run_timeout is not None or bool(waiting)
            done, _ = wait(
                list(inflight),
                timeout=_POLL_SECONDS if polling else None,
                return_when=FIRST_COMPLETED,
            )
            crashed = False
            for future in done:
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    crashed = True
                    continue
                chunk = inflight.pop(future)
                for position in _settle(chunk):  # the chunk task itself raised
                    _record_failure(
                        chunk.attempts[position],
                        kind="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
            if crashed:
                died = _crashed_workers(pool)
                kind, error = "crash", "worker process died (BrokenProcessPool)"
            elif policy.run_timeout is not None:
                charged = _overdue(inflight.values(), policy.run_timeout)
                if not charged:
                    continue
                kind = "timeout"
                error = f"run exceeded --run-timeout {policy.run_timeout:g}s wall clock"
                _kill_pool_processes(pool)
            else:
                continue

            outcome.pool_rebuilds += 1
            lost = list(inflight.values())
            inflight.clear()
            if crashed:
                charged = _crash_charges(lost, died, workers)
            for chunk in lost:
                for position in _settle(chunk):
                    attempt = chunk.attempts[position]
                    if position == charged.get(chunk):
                        _record_failure(attempt, kind=kind, error=error)
                    else:
                        _refund(attempt)
            pool.shutdown(wait=False, cancel_futures=True)
            _kill_pool_processes(pool)
            pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        _kill_pool_processes(pool)
        # Interrupted: checkpoint what the in-flight chunks finished.
        for chunk in inflight.values():
            _settle(chunk)
        shutil.rmtree(log_dir, ignore_errors=True)
    return outcome


def _overdue(chunks, timeout: float) -> dict[_Chunk, int]:
    """Chunks whose start log has sat at one position past ``timeout``."""
    now = time.monotonic()
    overdue = {}
    for chunk in chunks:
        tail = _log_tail(chunk.log)
        if tail != chunk.tail:
            chunk.tail, chunk.seen_at = tail, now
        elif tail is not None and now - chunk.seen_at > timeout:
            overdue[chunk] = tail[1]
    return overdue


def _crashed_workers(pool) -> set[int]:
    """PIDs of a broken pool's workers that died on their own.

    The executor fails every pending future, then SIGTERMs and reaps
    the survivors; once its manager thread is done, any exit code but
    ``-SIGTERM`` marks a worker that died first.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    manager = getattr(pool, "_executor_manager_thread", None)
    if manager is not None:
        manager.join(_POLL_SECONDS * 100)
    return {
        pid
        for pid, process in processes.items()
        if process.exitcode not in (None, -signal.SIGTERM)
    }


def _crash_charges(
    lost: Sequence[_Chunk], died: set[int], workers: int
) -> dict[_Chunk, int]:
    """The position in each broken chunk a pool break is charged to."""
    tails = {chunk: _log_tail(chunk.log) for chunk in lost}
    started = {chunk: tail for chunk, tail in tails.items() if tail is not None}
    named = {chunk: tail for chunk, tail in started.items() if tail[0] in died}
    if started:
        return {chunk: tail[1] for chunk, tail in (named or started).items()}
    # The worker died before its first log write; the pool runs chunks
    # FIFO, so at most the first ``workers`` of them had been taken.
    return dict.fromkeys(lost[:workers], 0)


def _kill_pool_processes(pool) -> None:
    """Force-kill a pool's worker processes (hung workers ignore shutdown).

    ``ProcessPoolExecutor`` has no kill switch, so this reaches for its
    internal process table; if that moves in a future CPython, a hung
    child is waited out at interpreter exit instead.
    """
    processes = getattr(pool, "_processes", None)
    if not processes:
        return
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass


def failure_table(failures: Sequence[RunFailure]):
    """Render permanent failures as an ExperimentTable (CLI summary)."""
    from repro.experiments.common import ExperimentTable

    return ExperimentTable(
        title=f"failed runs ({len(failures)})",
        headers=["run", "target", "kind", "attempts", "last error"],
        rows=[failure.summary_row() for failure in failures],
    )
