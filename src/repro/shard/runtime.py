"""Shared-memory blocks and the tick-barrier controller runtime.

The execution model is the simple synchronous design: one controller
process (the caller) and ``shards`` worker processes, all meeting at a
single reusable :class:`multiprocessing.Barrier` with ``shards + 1``
parties. One simulation round is a fixed barrier cadence:

1. **start barrier** — the controller has published this round's control
   words (command, per-round knobs); workers read them and either exit
   (``CMD_STOP``) or begin the round.
2. **phase barriers** (engine-chosen count) — e.g. the count engines use
   two: after the first every worker has *read* the global shared state,
   after the second every worker has *written* its own slice, so reads
   and writes never overlap.

Between rounds only the controller touches shared state (convergence
checks, cross-shard exchange), so no locks are needed anywhere — the
barrier cadence is the whole synchronization story.

Failure handling: a worker that raises pushes ``(shard, traceback)``
onto an error queue and aborts the barrier; everyone else's ``wait``
then raises ``BrokenBarrierError``, the controller drains the queue and
re-raises as :class:`ShardError` with the worker traceback inline.
Hung workers trip the same path via the barrier timeout, and a worker
that dies without a word (killed, ``os._exit``) via the controller's
watchdog thread, which sleeps on the workers' exit sentinels and aborts
the barrier. The controller itself blocks in the barrier: it burns no
CPU while the workers compute, on hosts where they need every core.

The default start method is ``fork`` (cheap, and the payloads are
already picklable so ``spawn`` works too — exercised in the test suite
via the ``start_method`` parameter).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import tempfile
import threading
import traceback
from multiprocessing import shared_memory
from threading import BrokenBarrierError
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.engine.metrics import TIME_BUCKETS, MetricsRegistry, load_snapshot
from repro.errors import SimulationError

__all__ = ["SharedArray", "ShardHarness", "ShardWorkerContext", "ShardError"]

#: Control-word layout (a small shared float64 array).
CMD, ROUND, FLAG, EXTRA = 0, 1, 2, 3
_CONTROL_SLOTS = 8
CMD_RUN, CMD_STOP = 0.0, 1.0

_DEFAULT_TIMEOUT = 300.0


class ShardError(SimulationError):
    """A shard worker crashed or the barrier protocol broke down."""


class SharedArray:
    """A numpy array backed by named shared memory.

    The creating side owns the segment (``unlink`` on close); attaching
    sides only map it. ``spec`` is the picklable handle workers use to
    attach: ``(name, shape, dtype-str)``.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape, dtype, *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)

    @classmethod
    def create(cls, shape, dtype) -> "SharedArray":
        size = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        shm = shared_memory.SharedMemory(create=True, size=size)
        block = cls(shm, shape, dtype, owner=True)
        block.array.fill(0)
        return block

    @property
    def spec(self) -> tuple[str, tuple, str]:
        return (self._shm.name, tuple(self.array.shape), self.array.dtype.str)

    @classmethod
    def attach(cls, spec: tuple[str, tuple, str]) -> "SharedArray":
        name, shape, dtype = spec
        # Attaching registers the segment with the (process-tree-wide)
        # resource tracker a second time; the tracker's cache is a set,
        # so the duplicate is harmless and the owner's unlink clears it.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, shape, dtype, owner=False)

    def close(self) -> None:
        # The numpy view holds a buffer export on shm.buf; drop it first
        # or SharedMemory.close raises BufferError.
        self.array = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class ShardWorkerContext:
    """Worker-side view of the barrier protocol and control words.

    When the harness runs with metrics enabled, ``metrics`` is a live
    per-worker :class:`~repro.engine.metrics.MetricsRegistry` (written to
    a sidecar file at worker exit and merged by the controller) and every
    ``wait`` feeds the ``shard.barrier_wait_seconds`` histogram — the
    direct read on shard imbalance. Without metrics, ``wait`` stays the
    bare barrier call.
    """

    def __init__(
        self,
        index: int,
        barrier,
        control: np.ndarray,
        timeout: float,
        metrics: MetricsRegistry | None = None,
        heartbeat: np.ndarray | None = None,
    ):
        self.index = index
        self.control = control
        self._barrier = barrier
        self._timeout = timeout
        self.metrics = metrics
        self._heartbeat = heartbeat
        self._wait_hist = (
            metrics.histogram("shard.barrier_wait_seconds", TIME_BUCKETS)
            if metrics is not None and metrics.enabled
            else None
        )

    def wait(self) -> None:
        # Bump the liveness word *before* parking at the barrier: on a
        # controller-side timeout, shards whose count trails the maximum
        # are the ones that never arrived — the stuck ones.
        if self._heartbeat is not None:
            self._heartbeat[self.index] += 1.0
        if self._wait_hist is None:
            self._barrier.wait(self._timeout)
            return
        start = perf_counter()
        self._barrier.wait(self._timeout)
        self._wait_hist.observe(perf_counter() - start)

    @property
    def stopped(self) -> bool:
        return self.control[CMD] == CMD_STOP

    @property
    def flag(self) -> float:
        return float(self.control[FLAG])

    @property
    def extra(self) -> float:
        return float(self.control[EXTRA])


def _worker_entry(
    worker: Callable[[ShardWorkerContext, dict], None],
    index: int,
    barrier,
    control_spec: tuple,
    errors,
    payload: dict,
    timeout: float,
    metrics_path: str | None = None,
    heartbeat_spec: tuple | None = None,
) -> None:
    control = SharedArray.attach(control_spec)
    heartbeat = (
        SharedArray.attach(heartbeat_spec) if heartbeat_spec is not None else None
    )
    metrics = MetricsRegistry() if metrics_path is not None else None
    try:
        worker(
            ShardWorkerContext(
                index,
                barrier,
                control.array,
                timeout,
                metrics,
                heartbeat.array if heartbeat is not None else None,
            ),
            payload,
        )
        if metrics is not None:
            metrics.write(metrics_path)
    except BrokenBarrierError:
        # Another shard (or the controller) already failed; exit quietly.
        pass
    except BaseException:
        errors.put((index, traceback.format_exc()))
        barrier.abort()
    finally:
        control.close()
        if heartbeat is not None:
            heartbeat.close()


class ShardHarness:
    """Controller-side lifecycle for ``shards`` barrier-driven workers.

    ``worker`` must be a module-level function
    ``worker(ctx: ShardWorkerContext, payload: dict) -> None`` running
    the per-round loop (see the module docstring cadence); ``payloads``
    carries one picklable dict per shard. ``phases`` is the number of
    barriers each round uses *after* the start barrier.
    """

    def __init__(
        self,
        worker: Callable[[ShardWorkerContext, dict], None],
        payloads: list[dict],
        *,
        phases: int,
        timeout: float = _DEFAULT_TIMEOUT,
        start_method: str | None = None,
        metrics=None,
    ):
        self.shards = len(payloads)
        self.phases = int(phases)
        self._timeout = float(timeout)
        ctx = multiprocessing.get_context(start_method or "fork")
        self._barrier = ctx.Barrier(self.shards + 1)
        self._errors = ctx.SimpleQueue()
        self.control = SharedArray.create((_CONTROL_SLOTS,), np.float64)
        # Per-shard liveness counters (bumped before every barrier wait)
        # so a barrier timeout can name the shard that never arrived.
        self._heartbeat = SharedArray.create((self.shards,), np.float64)
        self._stopped = False
        self._watchdog: threading.Thread | None = None
        # Metrics are opt-in: workers get a per-shard sidecar file for
        # their registries (merged into ours on a clean stop) and the
        # controller times each round. With metrics off, every hot-path
        # branch below reduces to a None check.
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._sidecar_dir: str | None = None
        sidecars: list[str | None] = [None] * self.shards
        if self._metrics is not None:
            self._sidecar_dir = tempfile.mkdtemp(prefix="repro-shard-metrics-")
            sidecars = [
                os.path.join(self._sidecar_dir, f"shard-{index:04d}.json")
                for index in range(self.shards)
            ]
            self._metrics.gauge("shard.workers").set(self.shards)
            self._round_hist = self._metrics.histogram(
                "shard.round_seconds", TIME_BUCKETS
            )
            self._rounds_counter = self._metrics.counter("shard.rounds")
        self._procs = [
            ctx.Process(
                target=_worker_entry,
                args=(
                    worker,
                    index,
                    self._barrier,
                    self.control.spec,
                    self._errors,
                    payload,
                    self._timeout,
                    sidecar,
                    self._heartbeat.spec,
                ),
                name=f"shard-{index}",
                daemon=True,
            )
            for index, (payload, sidecar) in enumerate(zip(payloads, sidecars))
        ]
        try:
            for proc in self._procs:
                proc.start()
        except BaseException:
            # No stop round: the workers that did start are parked at a
            # barrier the rest will never reach, so close() kills them.
            self._stopped = True
            self.close()
            raise
        # Started after the last fork, so no worker inherits the thread.
        self._wake_r, self._wake_w = os.pipe()
        self._watchdog = threading.Thread(
            target=self._watch, name="shard-watchdog", daemon=True
        )
        self._watchdog.start()

    def _watch(self) -> None:
        """Abort the barrier when a worker exits before the stop round."""
        sentinels = [proc.sentinel for proc in self._procs]
        ready = multiprocessing.connection.wait([*sentinels, self._wake_r])
        if self._wake_r not in ready and not self._stopped:
            self._barrier.abort()

    def _wait(self) -> None:
        try:
            self._barrier.wait(self._timeout)
        except BrokenBarrierError:
            # A worker raised (its traceback is queued), died (the
            # watchdog aborted the barrier) or never arrived (a barrier
            # timeout; the heartbeats name the shards that trail).
            # Workers that saw the barrier break exit with code 0.
            for proc in self._procs:
                if not proc.is_alive() and proc.exitcode != 0:
                    self._raise_worker_error(
                        f"worker process for shard {proc.name} died "
                        f"with exit code {proc.exitcode}"
                    )
            self._raise_worker_error(
                f"the barrier broke (an aborting worker, or a timeout after "
                f"{self._timeout}s); stuck shard(s): {self._stuck_shards()}"
            )

    def _stuck_shards(self) -> list[int]:
        """Shards whose heartbeat trails the front — the ones not at the
        barrier. All-equal heartbeats mean every shard stalled at the
        same point; report them all rather than none."""
        beats = self._heartbeat.array
        front = float(beats.max())
        behind = [int(i) for i in np.nonzero(beats < front)[0]]
        return behind if behind else list(range(self.shards))

    def _raise_worker_error(self, reason: str) -> None:
        self._stopped = True  # barrier is compromised; skip the stop round
        failures = []
        while not self._errors.empty():
            failures.append(self._errors.get())
        self.close()
        if failures:
            shard, trace = failures[0]
            raise ShardError(
                f"shard worker {shard} failed (of {len(failures)} failure(s)):\n{trace}"
            )
        raise ShardError(f"shard run failed: {reason}")

    def step(self, *, flag: float = 0.0, extra: float = 0.0) -> None:
        """Run one full round: publish control words, walk the barriers."""
        start = perf_counter() if self._metrics is not None else 0.0
        control = self.control.array
        control[CMD] = CMD_RUN
        control[ROUND] += 1.0
        control[FLAG] = flag
        control[EXTRA] = extra
        self._wait()  # start: workers pick up the round
        for _ in range(self.phases):
            self._wait()
        if self._metrics is not None:
            self._round_hist.observe(perf_counter() - start)
            self._rounds_counter.inc()

    def stop(self) -> None:
        """Release workers into a stop round and join them (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.control.array[CMD] = CMD_STOP
        try:
            self._barrier.wait(self._timeout)
        except BrokenBarrierError:  # pragma: no cover - racing a crash
            pass
        for proc in self._procs:
            proc.join(self._timeout)
        self._merge_worker_metrics()

    def _merge_worker_metrics(self) -> None:
        """Fold worker sidecar registries into the controller's.

        Workers write their sidecar only on a clean stop round, so a
        crashed shard simply contributes nothing — merging stays
        best-effort and never masks the real failure path.
        """
        if self._metrics is None or self._sidecar_dir is None:
            return
        directory, self._sidecar_dir = self._sidecar_dir, None
        try:
            for name in sorted(os.listdir(directory)):
                try:
                    self._metrics.merge_snapshot(
                        load_snapshot(os.path.join(directory, name))
                    )
                except Exception:  # pragma: no cover - partial sidecar
                    pass
        finally:
            for name in os.listdir(directory):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:  # pragma: no cover - already gone
                    pass
            try:
                os.rmdir(directory)
            except OSError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Stop workers (if still running) and release every resource."""
        if not self._stopped:
            self.stop()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
        if self._watchdog is not None:
            os.write(self._wake_w, b"\0")
            self._watchdog.join()
            self._watchdog = None
            os.close(self._wake_r)
            os.close(self._wake_w)
        self._merge_worker_metrics()
        if self.control is not None:
            self.control.close()
            self.control = None
        if self._heartbeat is not None:
            self._heartbeat.close()
            self._heartbeat = None

    def __enter__(self) -> "ShardHarness":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
