"""Structured tracing for simulations.

A :class:`Tracer` receives ``record(kind, time, **fields)`` calls from
protocol components. The default :data:`NULL_TRACER` drops everything at
near-zero cost; :class:`TraceRecorder` keeps records in memory for
analysis (phase timelines, promotion counts, signal volumes),
:class:`CountingTracer` keeps only per-kind counters for cheap telemetry
in large runs, and :class:`JsonlTracer` streams records to disk as JSON
Lines for offline analysis (``repro trace-metrics``) and the replay
visualizer.

The record vocabulary is protocol-level, not dispatch-level: engines
emit ``run`` headers, ``state`` transitions, ``phase`` changes,
``round`` snapshots, ``fault`` events, and ``end`` summaries.  The event
engine's skip-tick chains never dispatch locked no-op ticks, so a
dispatch-level trace would silently under-report ~40% of the protocol's
activity — hooking the state machine instead keeps records free of
engine internals (pinned by ``tests/engine/test_trace_determinism.py``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable

__all__ = [
    "Tracer",
    "NullTracer",
    "TraceRecord",
    "TraceRecorder",
    "CountingTracer",
    "JsonlTracer",
    "NULL_TRACER",
]


class Tracer:
    """Interface for trace sinks. Subclasses override :meth:`record`."""

    def record(self, kind: str, time: float, **fields: Any) -> None:
        """Accept one trace record. Default implementation drops it."""

    def enabled_for(self, kind: str) -> bool:
        """Cheap pre-check so hot paths can skip building field dicts."""
        return True


class NullTracer(Tracer):
    """Tracer that drops all records (the default)."""

    def enabled_for(self, kind: str) -> bool:
        return False


NULL_TRACER = NullTracer()


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One recorded trace entry."""

    kind: str
    time: float
    fields: dict[str, Any] = field(default_factory=dict)


class TraceRecorder(Tracer):
    """In-memory tracer, optionally filtered to a set of record kinds.

    Parameters
    ----------
    kinds:
        If given, only records whose ``kind`` is in this set are kept.
    max_records:
        Cap on the number of stored records; once reached, further
        records are dropped and :attr:`truncated` flips to ``True``.
        ``None`` (the default) keeps everything — fine for test-sized
        runs, but a traced ``n=10^6`` run emits millions of state
        records, so long-running consumers should set a cap (or stream
        to disk with :class:`JsonlTracer` instead).
    """

    def __init__(
        self,
        kinds: Iterable[str] | None = None,
        *,
        max_records: int | None = None,
    ):
        if max_records is not None and max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        self.records: list[TraceRecord] = []
        self._kinds = frozenset(kinds) if kinds is not None else None
        self.max_records = max_records
        #: True once at least one record was dropped by the cap.
        self.truncated = False

    def enabled_for(self, kind: str) -> bool:
        return self._kinds is None or kind in self._kinds

    def record(self, kind: str, time: float, **fields: Any) -> None:
        if not self.enabled_for(kind):
            return
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.truncated = True
            return
        self.records.append(TraceRecord(kind=kind, time=time, fields=fields))

    def by_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind, in chronological (insertion) order."""
        return [record for record in self.records if record.kind == kind]

    def times(self, kind: str) -> list[float]:
        """Timestamps of all records of one kind."""
        return [record.time for record in self.records if record.kind == kind]

    def __len__(self) -> int:
        return len(self.records)


class CountingTracer(Tracer):
    """Tracer that keeps only per-kind record counts (cheap telemetry)."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def record(self, kind: str, time: float, **fields: Any) -> None:
        self.counts[kind] += 1


def _json_default(value: Any) -> Any:
    """Serialize numpy scalars (and anything with ``.item()``) as plain JSON."""
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"trace field of type {type(value).__name__} is not JSON-serializable")


class JsonlTracer(Tracer):
    """Streaming trace sink: one JSON object per line, buffered writes.

    The hot-path cost of :meth:`record` is one tuple append; records are
    serialized and written in batches of ``buffer_records`` lines (one
    ``write`` call per batch), so tracing rides the same
    amortize-per-block philosophy as the batch event queue's bulk
    intake.  Serialization is deterministic — ``sort_keys`` plus compact
    separators — so two runs emitting identical record sequences produce
    byte-identical files.

    Parameters
    ----------
    path:
        Output file path (truncated on open), or an already-open text
        file object (then the caller owns closing the underlying file).
    kinds:
        If given, only these record kinds are written.
    buffer_records:
        Records accumulated in memory before each batch write.
    max_records:
        Cap on the number of records written; once reached, further
        records are dropped (counted in :attr:`dropped`) and
        :meth:`close` appends a final ``{"kind": "truncated",
        "dropped": N}`` marker so offline consumers (``trace-metrics``,
        the replay visualizer) can warn instead of silently analyzing a
        partial stream — the file-level twin of
        :attr:`TraceRecorder.truncated`.

    Use as a context manager (or call :meth:`close`) to guarantee the
    tail of the buffer reaches disk.
    """

    def __init__(
        self,
        path: str | Path | IO[str],
        *,
        kinds: Iterable[str] | None = None,
        buffer_records: int = 1024,
        max_records: int | None = None,
    ):
        if buffer_records < 1:
            raise ValueError(f"buffer_records must be >= 1, got {buffer_records}")
        if max_records is not None and max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        self._kinds = frozenset(kinds) if kinds is not None else None
        self._limit = int(buffer_records)
        self._buffer: list[tuple[str, float, dict[str, Any]]] = []
        self.records_written = 0
        self.max_records = max_records
        #: Records dropped at the ``max_records`` cap.
        self.dropped = 0
        self._last_time = 0.0
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns_fh = False
            self.path: Path | None = None
        else:
            self.path = Path(path)
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
            self._owns_fh = True
        self._closed = False

    def enabled_for(self, kind: str) -> bool:
        return self._kinds is None or kind in self._kinds

    @property
    def truncated(self) -> bool:
        """True once at least one record was dropped by the cap."""
        return self.dropped > 0

    def record(self, kind: str, time: float, **fields: Any) -> None:
        if self._kinds is not None and kind not in self._kinds:
            return
        buffer = self._buffer
        if (
            self.max_records is not None
            and self.records_written + len(buffer) >= self.max_records
        ):
            self.dropped += 1
            self._last_time = time
            return
        buffer.append((kind, time, fields))
        if len(buffer) >= self._limit:
            self.flush()

    def flush(self) -> None:
        """Serialize and write every buffered record."""
        if self._closed:
            raise ValueError("trace sink is closed")
        buffer = self._buffer
        if not buffer:
            return
        dumps = json.dumps
        lines = []
        for kind, time, fields in buffer:
            obj: dict[str, Any] = {"kind": kind, "t": time}
            obj.update(fields)
            lines.append(dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default))
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()
        self.records_written += len(buffer)
        buffer.clear()

    def close(self) -> None:
        """Flush the buffer and close the sink (idempotent).

        A capped sink that dropped records appends one ``truncated``
        marker so the loss is visible in the file itself.
        """
        if self._closed:
            return
        self.flush()
        if self.dropped:
            marker = {"kind": "truncated", "t": self._last_time, "dropped": self.dropped}
            self._fh.write(
                json.dumps(marker, sort_keys=True, separators=(",", ":")) + "\n"
            )
            self._fh.flush()
        self._closed = True
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
