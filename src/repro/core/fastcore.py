"""Build and load the compiled cores (``_fastcore.c`` and friends).

Three protocol simulators hand an eligible run's event loop to one C
extension and keep their Python engines as the oracle and the fallback:
:meth:`repro.core.single_leader.SingleLeaderSim.run` (``_slcore.c``),
:meth:`repro.multileader.consensus.MultiLeaderConsensusSim.run`
(``_mlcore.c``) and :meth:`repro.multileader.clustering.ClusteringSim.run`
(``_clcore.c``).  Each of those files is a protocol half (state,
handlers, payload codecs, a dispatch function) on one simulator half in
``_fastcore.h``/``_fastcore.c``: the clock, event heap, tally stream,
draw pools, tick counters and fault seam of a run, the event loop, and
the one entry body that loads both halves, runs the loop and writes
everything back.  The fourth user is synchronous:
:func:`repro.core.synchronous.pernode_round`, the round of both per-node
engines, runs Algorithm 1's update and tally in one pass over numpy
buffers (``_pncore.c``) and keeps its numpy passes as the oracle and
the fallback.  This module only builds and loads the extension:

* **Lazily.**  Nothing is built at import; the first :func:`load`
  builds or finds the extension, and the result (the module, or
  ``None``) is kept for the life of the process in ``_core``.
* **With the interpreter's own compiler.**  The build runs the
  ``sysconfig`` compiler (``CC`` with ``CCSHARED`` and ``INCLUDEPY``,
  one object per C file, then ``LDSHARED``) in child processes, so the
  parent imports neither setuptools nor numpy headers.
* **Into a content-keyed cache.**  Artifacts go to ``.bench_build/``
  at the repository root under one key: sha256 of every source (name
  and bytes) and ``EXT_SUFFIX``.  Each artifact is named by its own
  digest and moved into place with :func:`os.replace`; a small
  manifest, also replaced atomically, names the artifact and its
  digest.  An artifact whose bytes do not hash to the manifest's digest
  (truncated, or foreign) is never imported.  Concurrent builders each
  write whole files, so every interleaving leaves a consistent manifest
  behind.
* **Never fatally.**  No compiler, a failed build or a failed import
  all make :func:`load` return ``None``, and every run takes the
  Python path with identical records.

Tests force the Python cores by setting ``_core`` to ``None``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import json
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["load"]

_HERE = Path(__file__).parent
#: The extension's sources; the .c files compile to one object each.
_SOURCES = (
    "_fastcore.h", "_fastcore.c", "_slcore.c", "_mlcore.c", "_clcore.c", "_pncore.c"
)
#: The gitignored build cache at the repository root (``src/..``).
_BUILD_DIR = Path(__file__).resolve().parents[3] / ".bench_build"
_MODULE_NAME = "repro.core._fastcore"
#: Compiler flags beyond ``CCSHARED``: IEEE double arithmetic exactly
#: as written (no fused multiply-add), like the Python engine's.
_CFLAGS = ("-O2", "-fwrapv", "-ffp-contract=off", "-Wall", "-Wextra", "-DNDEBUG")
_BUILD_TIMEOUT_S = 300

_UNLOADED = object()
#: The loaded extension, ``None`` when unavailable, ``_UNLOADED`` before
#: the first :func:`load`.
_core = _UNLOADED


def load():
    """The compiled core module, building it on first use; ``None`` if unavailable."""
    global _core
    if _core is _UNLOADED:
        _core = _load_or_build()
    return _core


def _load_or_build():
    try:
        sources = {name: (_HERE / name).read_bytes() for name in _SOURCES}
    except OSError:
        return None
    manifest = _manifest(_source(sources))
    module = _import(manifest)
    if module is None and _build(sources, manifest):
        module = _import(manifest)
    return module


def _source(sources: dict[str, bytes] | None = None) -> bytes:
    """Every source, name and bytes, as one string (the cache key's input)."""
    if sources is None:
        sources = {name: (_HERE / name).read_bytes() for name in _SOURCES}
    return b"".join(
        name.encode() + b"\0" + len(data).to_bytes(8, "little") + data
        for name, data in sorted(sources.items())
    )


def _suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _manifest(source: bytes) -> Path:
    """The manifest of the artifact built from ``source`` for this interpreter."""
    key = hashlib.sha256(source + _suffix().encode()).hexdigest()[:32]
    return _BUILD_DIR / f"_fastcore-{key}.json"


def _import(manifest: Path):
    """Import the manifest's artifact if its bytes hash to the recorded digest."""
    try:
        entry = json.loads(manifest.read_text())
        name, digest = entry["artifact"], entry["sha256"]
        if Path(name).name != name:  # a bare file name in this directory
            return None
        path = manifest.parent / name
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return None
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
        spec = importlib.util.spec_from_file_location(_MODULE_NAME, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        return module
    except (OSError, ValueError, KeyError, TypeError, ImportError):
        return None


def _build(sources: dict[str, bytes], manifest: Path) -> bool:
    """Compile ``sources`` and publish them under ``manifest``; ``False`` on any failure."""
    config = sysconfig.get_config_var
    directory, key, suffix = manifest.parent, manifest.stem, _suffix()
    cc, ldshared, include = config("CC"), config("LDSHARED"), config("INCLUDEPY")
    if not (cc and ldshared and include):
        return False
    try:
        directory.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f".build-{key}-", dir=directory))
    except OSError:
        return False
    try:
        for name, data in sources.items():
            (scratch / name).write_bytes(data)
        out = scratch / f"_fastcore{suffix}"
        objects = [scratch / f"{name[:-2]}.o" for name in sources if name.endswith(".c")]
        compile_cmd = [*shlex.split(cc), *shlex.split(config("CCSHARED") or ""), *_CFLAGS]
        commands = [
            [*compile_cmd, f"-I{include}", "-c", str(obj.with_suffix(".c")), "-o", str(obj)]
            for obj in objects
        ]
        commands.append([*shlex.split(ldshared), *map(str, objects), "-o", str(out)])
        for command in commands:
            subprocess.run(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=True,
                timeout=_BUILD_TIMEOUT_S,
            )
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        artifact = f"{key}-{digest[:16]}{suffix}"
        os.replace(out, directory / artifact)
        pending = scratch / "manifest.json"
        pending.write_text(json.dumps({"artifact": artifact, "sha256": digest}))
        os.replace(pending, manifest)
        return True
    except (OSError, ValueError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
