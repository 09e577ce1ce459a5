"""Deterministic random-number substreams and batched draw pools.

Every stochastic component of a simulation (clocks, latencies, sampling,
initial opinions, ...) draws from its own named substream derived from a
single root seed. Two runs with the same root seed therefore produce
identical trajectories even when components are constructed in a
different order, and changing how often one component draws does not
perturb the randomness seen by another.

The implementation uses :class:`numpy.random.SeedSequence.spawn`-style
key derivation: a substream named ``"clock/17"`` is seeded by the root
``SeedSequence`` extended with the stable 64-bit hash of its name.

Draw pools
----------
The event-driven protocol simulators consume randomness one value at a
time (one inter-tick wait, one edge latency, one sampled contact id per
event handler).  Scalar :class:`numpy.random.Generator` calls cost about
a microsecond each — the numpy call overhead dwarfs the actual sampling
— so the hot path draws from *pools* instead: each pool prefetches a
block of draws with a single vectorized numpy call, converts it to a
plain Python list, and hands values out one by one.  Amortized cost per
draw drops by roughly an order of magnitude.

NumPy fills array draws through the same per-element sampler used by
scalar draws, so one pool over one generator yields *exactly* the value
sequence of the equivalent scalar-draw loop.  When several pools share
a generator, their refills interleave at block granularity — still
fully deterministic for a given seed, but a different (identically
distributed) interleaving than a scalar-draw engine; the equivalence
suite in ``tests/engine/test_fast_equivalence.py`` checks the resulting
trajectory distributions match.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "RngRegistry",
    "stable_name_key",
    "DrawPool",
    "ExponentialPool",
    "UniformPool",
    "IntegerPool",
    "LatencyPool",
    "ChannelDelayPool",
]

#: Default number of draws prefetched per pool refill.  Large enough to
#: amortize the numpy call, small enough not to waste draws on short runs.
DEFAULT_BLOCK = 4096


def stable_name_key(name: str) -> int:
    """Map ``name`` to a stable 32-bit integer key.

    Uses CRC32 (stable across Python processes and versions, unlike
    built-in ``hash``) so substream derivation is reproducible.
    """
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation. ``None`` draws entropy from
        the OS, which makes the run non-reproducible; tests and
        experiments always pass an explicit integer.

    Examples
    --------
    >>> rngs = RngRegistry(7)
    >>> a = rngs.stream("clock/0")
    >>> b = rngs.stream("clock/1")
    >>> a is rngs.stream("clock/0")   # streams are cached by name
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, seed: int | None = 0):
        if seed is not None and seed < 0:
            raise ConfigurationError(f"seed must be None or a non-negative integer, got {seed}")
        self._root = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def root_entropy(self) -> int:
        """The root entropy used to derive all substreams."""
        entropy = self._root.entropy
        if isinstance(entropy, (list, tuple)):
            return int(entropy[0])
        return int(entropy)

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for substream ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(stable_name_key(name),),
            )
            generator = np.random.Generator(np.random.PCG64(child))
            self._streams[name] = generator
        return generator

    def streams(self, prefix: str, count: int) -> list[np.random.Generator]:
        """Return ``count`` streams named ``"{prefix}/0" .. "{prefix}/{count-1}"``."""
        return [self.stream(f"{prefix}/{index}") for index in range(count)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.root_entropy}, streams={len(self._streams)})"


class DrawPool:
    """Base class for block-prefetched scalar draws.

    Subclasses implement :meth:`_refill_array`, returning a fresh block
    of draws as a numpy array.  Calling the pool returns the next value
    from a plain-list view of the block; an exhausted buffer triggers
    one vectorized refill.  The refill is the only numpy call on the
    path, so per-draw cost is a couple of list operations.  The numpy
    block itself is kept alongside the list, so :meth:`take_array`
    hands out zero-copy array slices for vectorized consumers (the
    sparse-graph neighbor pools); the window-batched protocol
    schedulers take plain lists (:meth:`take`).

    Examples
    --------
    >>> rng = np.random.Generator(np.random.PCG64(0))
    >>> pool = UniformPool(rng, block=4)
    >>> value = pool()                  # triggers the first refill
    >>> 0.0 <= value < 1.0
    True
    >>> pool.remaining                  # three prefetched draws left
    3
    >>> pool() == value                 # draws advance, never repeat
    False
    """

    __slots__ = ("_rng", "_block", "_buf", "_arr", "_pos")

    def __init__(self, rng: np.random.Generator, *, block: int | None = None):
        if block is None:
            block = DEFAULT_BLOCK
        if block < 1:
            raise ConfigurationError(f"pool block size must be >= 1, got {block}")
        self._rng = rng
        self._block = block
        self._buf: list = []
        self._arr: np.ndarray | None = None
        self._pos = 0

    def _refill_array(self) -> np.ndarray:
        raise NotImplementedError

    def _refill(self) -> list:
        arr = self._refill_array()
        self._arr = arr
        return arr.tolist()

    def __call__(self):
        pos = self._pos
        try:
            value = self._buf[pos]
        except IndexError:
            self._buf = self._refill()
            self._pos = 1
            return self._buf[0]
        self._pos = pos + 1
        return value

    def take(self, count: int) -> list:
        """The next ``count`` draws as a list (the bulk hot-path API).

        Consumes the generator exactly like ``count`` scalar calls —
        values come off the same prefetched buffer, refilled in the same
        block granularity — so block-1 pools hand out the seed scalar
        sequence whether drawn one at a time or in bulk.
        """
        buf = self._buf
        pos = self._pos
        end = pos + count
        if end <= len(buf):
            self._pos = end
            return buf[pos:end]
        out = buf[pos:]
        need = count - len(out)
        while True:
            buf = self._refill()
            if need < len(buf):
                out += buf[:need]
                self._buf = buf
                self._pos = need
                return out
            out += buf
            need -= len(buf)
            if not need:
                self._buf = buf
                self._pos = len(buf)
                return out

    def take_array(self, count: int) -> np.ndarray:
        """The next ``count`` draws as a numpy array (zero-copy slice).

        Same draw sequence as :meth:`take`/scalar calls; within one
        block the result is a view of the prefetched array, so bulk
        consumers never pay a list->array conversion.
        """
        pos = self._pos
        buf = self._buf
        end = pos + count
        arr = self._arr
        if arr is not None and end <= len(buf):
            self._pos = end
            return arr[pos:end]
        parts = []
        have = len(buf) - pos
        if have:
            parts.append(arr[pos:] if arr is not None else np.asarray(buf[pos:]))
        need = count - have
        while need:
            buf = self._refill()
            arr = self._arr
            if need < len(buf):
                parts.append(arr[:need])
                self._buf = buf
                self._pos = need
                break
            parts.append(arr)
            need -= len(buf)
            self._buf = buf
            self._pos = len(buf)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def remaining(self) -> int:
        """Prefetched draws not yet handed out (telemetry/testing)."""
        return len(self._buf) - self._pos


class ExponentialPool(DrawPool):
    """Pooled ``Exp(rate)`` draws (mean ``1/rate``)."""

    __slots__ = ("scale",)

    def __init__(
        self, rng: np.random.Generator, rate: float = 1.0, *, block: int | None = None
    ):
        if not rate > 0:
            raise ConfigurationError(f"exponential rate must be positive, got {rate}")
        super().__init__(rng, block=block)
        self.scale = 1.0 / rate

    def _refill_array(self) -> np.ndarray:
        return self._rng.exponential(self.scale, self._block)


class UniformPool(DrawPool):
    """Pooled uniform ``[0, 1)`` draws."""

    __slots__ = ()

    def _refill_array(self) -> np.ndarray:
        return self._rng.random(self._block)


class IntegerPool(DrawPool):
    """Pooled uniform integers in ``[0, high)``.

    The complete-graph samplers draw from ``high = n - 1`` and apply the
    shift trick (skip the caller's own id) at the call site.
    """

    __slots__ = ("high",)

    def __init__(self, rng: np.random.Generator, high: int, *, block: int | None = None):
        if high < 1:
            raise ConfigurationError(f"integer pool bound must be >= 1, got {high}")
        super().__init__(rng, block=block)
        self.high = high

    def _refill_array(self) -> np.ndarray:
        return self._rng.integers(self.high, size=self._block)


class LatencyPool(DrawPool):
    """Pooled draws from an arbitrary latency model.

    Wraps any object exposing ``draw(rng, size=...)`` (the
    :class:`repro.engine.latency.LatencyModel` protocol), so protocol
    simulators batch non-exponential latency distributions the same way.
    """

    __slots__ = ("model",)

    def __init__(self, model, rng: np.random.Generator, *, block: int | None = None):
        super().__init__(rng, block=block)
        self.model = model

    def _refill_array(self) -> np.ndarray:
        return np.asarray(self.model.draw(self._rng, size=self._block), dtype=float)


class ChannelDelayPool(DrawPool):
    """Pooled composite channel-establishment delays.

    One protocol cycle opens channels in *stages*: the channels of a
    stage open concurrently (the stage costs the max of its iid
    latencies) and stages run back to back (their costs add).  E.g. the
    single-leader cycle — two random contacts concurrently, then the
    leader — is ``stages=(2, 1)``; the paper's sequential plan is
    ``stages=(1, 1, 1)``.

    Because the individual latencies are never observed separately, the
    whole composite is drawn at refill time with one vectorized call:
    a ``(block, sum(stages))`` latency matrix reduced per row.  Row
    ``i`` consumes the generator exactly like the seed engine's
    ``max(d_0, .., d_{g-1}) + ..`` scalar sequence, so with ``block=1``
    the values are bit-identical to the scalar-draw implementation.

    ``model`` overrides the exponential with any
    :class:`repro.engine.latency.LatencyModel` (Section 5 sensitivity
    studies); ``rate`` is ignored in that case.
    """

    __slots__ = ("scale", "stages", "model", "_width")

    def __init__(
        self,
        rng: np.random.Generator,
        rate: float = 1.0,
        *,
        stages: tuple[int, ...] = (2, 1),
        model=None,
        block: int | None = None,
    ):
        if not stages or any(g < 1 for g in stages):
            raise ConfigurationError(f"stages must be positive group sizes, got {stages}")
        if model is None and not rate > 0:
            raise ConfigurationError(f"latency rate must be positive, got {rate}")
        super().__init__(rng, block=block)
        self.scale = 1.0 / rate if model is None else None
        self.stages = tuple(int(g) for g in stages)
        self.model = model
        self._width = sum(self.stages)

    def _refill_array(self) -> np.ndarray:
        shape = (self._block, self._width)
        if self.model is None:
            draws = self._rng.exponential(self.scale, shape)
        else:
            draws = np.asarray(self.model.draw(self._rng, size=shape), dtype=float)
        total = np.zeros(self._block)
        start = 0
        for group in self.stages:
            segment = draws[:, start : start + group]
            total += segment[:, 0] if group == 1 else segment.max(axis=1)
            start += group
        return total
