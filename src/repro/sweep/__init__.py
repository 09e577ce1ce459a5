"""Sweep orchestration: parameter grids, run cache, parallel fan-out.

The paper's claims are distributional statements over many independent
runs, which makes seed/config sweeps the outermost — and embarrassingly
parallel — loop of the whole reproduction. This package is that loop as
a subsystem:

* :mod:`repro.sweep.spec` — :class:`SweepSpec` grids expanding into
  content-addressed :class:`RunConfig` work units;
* :mod:`repro.sweep.targets` — named, picklable simulation entry
  points (protocols and baselines);
* :mod:`repro.sweep.cache` — the on-disk ``runs/<sha256>.json`` record
  cache (atomic writes, corruption recovery, gc);
* :mod:`repro.sweep.runner` — serial or process-pool execution with
  per-run :class:`~repro.engine.rng.RngRegistry` substream seeding;
* :mod:`repro.sweep.aggregate` — records → deterministic tables.

See ``docs/architecture.md`` for how the layers fit together and
``repro sweep --help`` for the CLI front-end.
"""

from repro.sweep.aggregate import aggregate_table, group_records
from repro.sweep.cache import CacheStats, RunCache
from repro.sweep.runner import (
    SweepReport,
    execute_run,
    run_experiments,
    run_sweep,
)
from repro.sweep.spec import (
    RunConfig,
    SweepSpec,
    canonical_json,
    config_digest,
    parse_grid,
    parse_overrides,
)
from repro.sweep.targets import get_target, register_target, target_names

__all__ = [
    "SweepSpec",
    "RunConfig",
    "canonical_json",
    "config_digest",
    "parse_grid",
    "parse_overrides",
    "RunCache",
    "CacheStats",
    "run_sweep",
    "execute_run",
    "run_experiments",
    "SweepReport",
    "aggregate_table",
    "group_records",
    "register_target",
    "get_target",
    "target_names",
]
