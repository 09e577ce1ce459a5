"""Checkpoint–restart recovery for the sharded count engines.

A :class:`~repro.shard.runtime.ShardError` normally discards the whole
run — unacceptable at n=10^7, where a single OOM-killed worker at round
40,000 wastes everything before it. This module adds the recovery seam
the ``resumable=`` flag on the sharded front-ends threads through:

* every K rounds each worker writes its generator state into a shared
  ``(shards, PCG64_STATE_WORDS)`` uint64 array (packed via
  :func:`pack_pcg64_state`) right after writing its count slot, and the
  controller snapshots count slots + generator states + round number
  into private copies;
* :class:`CheckpointingController` wraps the harness ``step`` call: on
  ``ShardError`` it tears the harness down, restores shared state from
  the snapshot, rebuilds fresh workers in *resume* mode (generators
  reconstructed from the saved states instead of the seed sequences),
  and replays the recorded per-round control flags up to the failure
  point.

**Determinism contract.** The count-engine workers consume randomness
only inside ``kernel.advance``, exactly once per round, and the
controller records every round's control flag instead of re-consulting
its (stateful) schedule during replay. Restoring counts + generator
states to round R and replaying the recorded flags therefore reproduces
rounds R+1..crash *bit-identically* — a killed-and-resumed run equals
the unfaulted run, not merely statistically. This holds for the
count-state engines only; the per-node synchronous engine and the
population scheduler keep state the checkpoint does not capture and are
deliberately not resumable (``resumable=`` raises there).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.shard.runtime import ROUND, ShardError, ShardHarness, SharedArray

__all__ = [
    "PCG64_STATE_WORDS",
    "pack_pcg64_state",
    "unpack_pcg64_state",
    "initial_rng_states",
    "CheckpointingController",
]

#: uint64 words per packed PCG64 state: 128-bit ``state`` (lo, hi),
#: 128-bit ``inc`` (lo, hi), ``has_uint32``, ``uinteger``.
PCG64_STATE_WORDS = 6

_U64 = (1 << 64) - 1


def pack_pcg64_state(state: dict) -> np.ndarray:
    """Pack ``PCG64.state`` into :data:`PCG64_STATE_WORDS` uint64 words."""
    if state.get("bit_generator") != "PCG64":
        raise ConfigurationError(
            f"can only checkpoint PCG64 generators, got "
            f"{state.get('bit_generator')!r}"
        )
    inner = state["state"]
    return np.array(
        [
            inner["state"] & _U64,
            (inner["state"] >> 64) & _U64,
            inner["inc"] & _U64,
            (inner["inc"] >> 64) & _U64,
            int(state["has_uint32"]) & _U64,
            int(state["uinteger"]) & _U64,
        ],
        dtype=np.uint64,
    )


def unpack_pcg64_state(words: np.ndarray) -> dict:
    """Inverse of :func:`pack_pcg64_state` (a ``PCG64.state`` dict)."""
    w = [int(word) for word in words]
    return {
        "bit_generator": "PCG64",
        "state": {"state": w[0] | (w[1] << 64), "inc": w[2] | (w[3] << 64)},
        "has_uint32": w[4],
        "uinteger": w[5],
    }


def restored_generator(words: np.ndarray) -> np.random.Generator:
    """A generator continuing exactly where the packed state left off."""
    bit_generator = np.random.PCG64()
    bit_generator.state = unpack_pcg64_state(words)
    return np.random.Generator(bit_generator)


def initial_rng_states(seed_seqs) -> np.ndarray:
    """Round-0 checkpoint rows: the pristine per-shard generator states.

    Computed controller-side from the same seed sequences the workers
    would consume, so a crash before the first worker-written checkpoint
    restarts from the exact initial states.
    """
    return np.stack(
        [pack_pcg64_state(np.random.PCG64(seq).state) for seq in seed_seqs]
    )


class CheckpointingController:
    """Harness wrapper: snapshot every K rounds, restart on ``ShardError``.

    Drop-in for the bare harness at the simulators' call sites — it
    exposes ``step(flag=..., extra=...)`` and ``close()`` — but owns the
    harness lifecycle: ``build`` is called with ``resume=False`` for the
    initial workers and ``resume=True`` after every restart (payloads
    must then tell :func:`~repro.shard.count_engine.count_worker` to
    reconstruct generators from the shared state rows).

    ``max_restarts`` bounds recovery attempts per run; exhausting it
    re-raises the last :class:`~repro.shard.runtime.ShardError`. The
    controller owns ``rng_states`` and releases it in :meth:`close`.
    """

    def __init__(
        self,
        build: Callable[[bool], ShardHarness],
        *,
        slots: SharedArray,
        rng_states: SharedArray,
        checkpoint_every: int,
        max_restarts: int = 2,
        metrics=None,
    ):
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self._build = build
        self._slots = slots
        self._rng_states = rng_states
        self.checkpoint_every = int(checkpoint_every)
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._round = 0
        # Per-round control words since the last snapshot; replayed
        # verbatim on restart (never re-derived — the schedule that
        # produced them is stateful).
        self._pending: list[tuple[float, float]] = []
        self._applied = 0
        self._harness: ShardHarness | None = build(False)
        self._snapshot()

    # -- snapshot / restore ------------------------------------------------

    def _snapshot(self) -> None:
        self._ckpt_round = self._round
        self._ckpt_slots = self._slots.array.copy()
        self._ckpt_rng = self._rng_states.array.copy()
        self._pending = []
        self._applied = 0

    def _restart(self) -> None:
        """Tear down, restore the checkpoint, rebuild resume workers."""
        self.restarts += 1
        if self._metrics is not None:
            self._metrics.counter("shard.restarts").inc()
        if self._harness is not None:
            # Already closed by the error path in the common case;
            # close() is idempotent and also reaps a hung worker.
            self._harness.close()
        self._slots.array[:] = self._ckpt_slots
        self._rng_states.array[:] = self._ckpt_rng
        self._harness = self._build(True)
        # Continue the round numbering: workers key their checkpoint
        # writes off control[ROUND], which a fresh harness resets.
        self._harness.control.array[ROUND] = float(self._ckpt_round)
        self._applied = 0

    # -- harness surface ---------------------------------------------------

    def step(self, *, flag: float = 0.0, extra: float = 0.0) -> None:
        """One supervised round (replaying from the checkpoint on failure)."""
        self._pending.append((flag, extra))
        while True:
            try:
                while self._applied < len(self._pending):
                    replay_flag, replay_extra = self._pending[self._applied]
                    self._harness.step(flag=replay_flag, extra=replay_extra)
                    self._applied += 1
                break
            except ShardError:
                if self.restarts >= self.max_restarts:
                    raise
                self._restart()
        self._round += 1
        if self._round % self.checkpoint_every == 0:
            self._snapshot()

    def close(self) -> None:
        """Stop the workers and release the generator-state block."""
        if self._harness is not None:
            self._harness.close()
            self._harness = None
        if self._rng_states is not None:
            self._rng_states.close()
            self._rng_states = None
