"""Content-addressed on-disk cache of completed runs.

Each completed run is stored as ``<root>/<sha256(config)>.json`` — the
digest of the run's canonical config (see
:func:`repro.sweep.spec.config_digest`) is the filename, so a cache
lookup is a single ``open`` and re-running a sweep only executes the
configs whose files are missing. The sweep runner stores each record
as soon as it is settled — after its run, or as its pool chunk comes
back, also when a chunk-mate crashes, times out or the sweep is
interrupted — so interrupted sweeps resume for free, and unrelated
sweeps share hits whenever their grids overlap.

Robustness guarantees:

* **Atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``\\ d into place, so a killed process never
  leaves a half-written entry under a valid name.
* **Corruption recovery** — :meth:`RunCache.get` treats unparsable
  JSON, schema mismatches, wrong cache versions, and entries whose
  embedded config does not hash to their filename as misses; the run
  re-executes and the atomic `put` replaces the bad file.
  :meth:`RunCache.gc` deletes such entries.

Examples
--------
>>> import tempfile
>>> cache = RunCache(tempfile.mkdtemp())
>>> config = {"target": "demo", "params": {"n": 10}, "seed": 0, "rep": 0}
>>> cache.get(config) is None
True
>>> _ = cache.put(config, {"elapsed": 1.5})
>>> cache.get(config)
{'elapsed': 1.5}
>>> cache.stats().entries
1
"""

from __future__ import annotations

import atexit
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.sweep.spec import config_digest

__all__ = ["RunCache", "CacheStats", "CACHE_VERSION", "DEFAULT_CACHE_DIR"]

#: ``.tmp`` paths this process has created but not yet renamed or
#: unlinked. A ``KeyboardInterrupt`` (or any exception that unwinds
#: past ``put``) must not strand them: ``put`` reaps its own tmp in a
#: ``finally``, and the atexit hook below sweeps anything that somehow
#: survived to interpreter shutdown — only *our own* files, never a
#: concurrent writer's.
_PENDING_TMP: set[str] = set()


def _reap_pending_tmp() -> None:
    """Unlink every tmp file this process still owns (atexit hook)."""
    for tmp_name in list(_PENDING_TMP):
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        _PENDING_TMP.discard(tmp_name)


atexit.register(_reap_pending_tmp)

#: Bump when the envelope schema changes; older entries become misses.
CACHE_VERSION = 1

#: Where the CLI caches runs unless told otherwise.
DEFAULT_CACHE_DIR = Path("runs")

#: Entry filenames are SHA-256 hex digests; anything else in the cache
#: directory is foreign and must never be read, counted, or deleted.
_DIGEST_NAME = re.compile(r"^[0-9a-f]{64}$")

#: ``gc`` only removes ``.tmp`` leftovers older than this — a younger
#: one may be a concurrent ``put`` mid-write.
STALE_TMP_SECONDS = 3600.0


@dataclass(frozen=True)
class CacheStats:
    """Aggregate view of a cache directory."""

    root: Path
    entries: int
    corrupt: int
    bytes: int

    def render(self) -> str:
        return (
            f"cache {self.root}: {self.entries} entries"
            f" ({self.bytes / 1024:.1f} KiB), {self.corrupt} corrupt"
        )


class RunCache:
    """A directory of ``<digest>.json`` run records."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Telemetry: lookups that found a file but had to discard it
        # (unparsable, stale version, digest mismatch). Plain int on a
        # rare path; the sweep runner harvests it into `sweep.cache.corrupt`.
        self.corrupt_hits = 0
        # Bytes the most recent gc() deleted (or would have, dry-run).
        self.gc_freed_bytes = 0

    def path_for(self, config: Mapping[str, Any]) -> Path:
        """Cache file that does or would hold this config's record."""
        return self.root / f"{config_digest(config)}.json"

    def _load(self, path: Path) -> dict | None:
        """Parse and validate one entry; ``None`` if corrupt or stale."""
        try:
            envelope = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("version") != CACHE_VERSION:
            return None
        config = envelope.get("config")
        if not isinstance(config, dict) or "record" not in envelope:
            return None
        if config_digest(config) != path.stem:
            return None
        return envelope

    def get(self, config: Mapping[str, Any]) -> dict | None:
        """The cached record for ``config``, or ``None`` on miss/corruption."""
        path = self.path_for(config)
        if not path.exists():
            return None
        envelope = self._load(path)
        if envelope is None:
            self.corrupt_hits += 1
            return None
        return envelope["record"]

    def put(self, config: Mapping[str, Any], record: Mapping[str, Any]) -> Path:
        """Atomically store ``record`` under ``config``'s digest."""
        path = self.path_for(config)
        envelope = {
            "version": CACHE_VERSION,
            "config": dict(config),
            "record": dict(record),
        }
        # Not canonical_json: the filename digest already comes from the
        # config alone, and records may legitimately contain NaN/Inf
        # (e.g. an experiment table with no epsilon target), which
        # Python's json round-trips but strict JSON rejects.
        payload = json.dumps(envelope, separators=(",", ":"), allow_nan=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        _PENDING_TMP.add(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        finally:
            # Whether the rename happened or an exception (including
            # KeyboardInterrupt) is unwinding, this process's tmp file
            # must not outlive the call.
            if os.path.exists(tmp_name):
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            _PENDING_TMP.discard(tmp_name)
        return path

    def entry_paths(self) -> Iterator[Path]:
        """All entry files (digest-named), sorted for determinism.

        Files whose stem is not a SHA-256 digest are not cache entries —
        a user pointing ``--cache-dir`` at a directory holding their own
        JSON must never have those files read or garbage-collected.
        """
        return iter(
            sorted(
                path
                for path in self.root.glob("*.json")
                if _DIGEST_NAME.fullmatch(path.stem)
            )
        )

    def stats(self) -> CacheStats:
        """Count entries, corrupt entries, and total bytes."""
        entries = corrupt = total = 0
        for path in self.entry_paths():
            total += path.stat().st_size
            if self._load(path) is None:
                corrupt += 1
            else:
                entries += 1
        return CacheStats(root=self.root, entries=entries, corrupt=corrupt, bytes=total)

    def gc(
        self,
        *,
        dry_run: bool = False,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        delete_all: bool = False,
    ) -> list[Path]:
        """Delete corrupt entries (always), old entries, or everything.

        Parameters
        ----------
        dry_run:
            Report what would be deleted without touching anything.
        max_age_days:
            Also delete valid entries whose mtime is older than this.
        max_bytes:
            Shrink the cache to at most this many bytes of valid
            entries, evicting least-recently-written first (mtime
            order) after the corrupt/age passes have run.
        delete_all:
            Wipe every entry (including stray ``.tmp`` leftovers).

        Returns the paths deleted (or that would be, under ``dry_run``);
        ``gc_freed_bytes`` holds their combined size afterwards.
        """
        doomed: list[Path] = []
        survivors: list[tuple[float, int, Path]] = []  # (mtime, size, path)
        cutoff = None
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
        for path in self.entry_paths():
            stat = path.stat()
            if delete_all or self._load(path) is None:
                doomed.append(path)
            elif cutoff is not None and stat.st_mtime < cutoff:
                doomed.append(path)
            else:
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None and not delete_all:
            # LRU by mtime: keep the newest entries that fit the byte
            # budget, evict the rest oldest-first.
            survivors.sort(key=lambda item: item[0], reverse=True)
            kept = 0
            for mtime, size, path in survivors:
                if kept + size > max_bytes:
                    doomed.append(path)
                else:
                    kept += size
        now = time.time()
        for stray in sorted(self.root.glob("*.tmp")):
            # A fresh .tmp may be a concurrent put() mid-write; only
            # reap ones old enough to be crash leftovers.
            if delete_all or now - stray.stat().st_mtime > STALE_TMP_SECONDS:
                doomed.append(stray)
        freed = 0
        for path in doomed:
            try:
                freed += path.stat().st_size
            except OSError:
                pass
        self.gc_freed_bytes = freed
        if not dry_run:
            for path in doomed:
                try:
                    path.unlink()
                except OSError:
                    pass
        return doomed
