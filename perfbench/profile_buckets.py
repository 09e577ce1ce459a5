"""Group cProfile self time (tottime) into the layer buckets of ``buckets.json``.

A function defined in the program or in numpy is charged to the bucket
of the first rule whose path fragment its source path contains; a
program module that no rule names is charged to ``other``. Everything
else has no bucket of its own: C built-ins such as ``heappop`` or
``list.append``, standard-library functions such as a process-pool wait
or ``json.dumps``, and the benchmark's own code. Their self time is split
across their callers by the time each caller spent in them, and follows
the callers up until it reaches program code, so a lock wait called from
``repro/shard/runtime.py`` counts as barrier time. Built-ins whose name
names numpy (array methods, the random generator's draws) go to
``numpy``. Time with no program code above it lands in ``other``.
"""

from __future__ import annotations

import json
import os
import pstats
from collections import defaultdict
from pathlib import Path

BUCKETS_FILE = Path(__file__).with_name("buckets.json")

# Columns of a pstats caller entry: (primitive calls, calls, tottime, cumtime).
_TOTTIME, _CUMTIME = 2, 3


def load_buckets() -> tuple[list[str], list[tuple[str, str]]]:
    """The bucket names and the ordered ``(path fragment, bucket)`` rules."""
    data = json.loads(BUCKETS_FILE.read_text())
    buckets = list(data["buckets"])
    rules = [(fragment, bucket) for fragment, bucket in data["rules"]]
    unknown = sorted({bucket for _, bucket in rules} - set(buckets))
    if unknown or "other" not in buckets:
        raise ValueError(f"{BUCKETS_FILE.name}: rules name unknown buckets {unknown}")
    return buckets, rules


def bucket_seconds(profile) -> dict[str, float]:
    """Self seconds per bucket for one ``cProfile.Profile`` (every bucket present)."""
    buckets, rules = load_buckets()
    stats = pstats.Stats(profile).stats

    def owner(func) -> str | None:
        filename, _, name = func
        if filename == "~":
            return "numpy" if "numpy" in name else None
        path = filename.replace(os.sep, "/")
        for fragment, bucket in rules:
            if fragment in path:
                return bucket
        return "other" if "/repro/" in path else None

    shares: dict = {}
    active: set = set()

    def share_of(func) -> dict[str, float]:
        """How ``func``'s time splits over buckets, by its callers' cumtime."""
        if func in shares:
            return shares[func]
        bucket = owner(func)
        if bucket is not None:
            result = {bucket: 1.0}
        elif func in active or func not in stats:
            return {"other": 1.0}
        else:
            active.add(func)
            result = spread(stats[func][4], _CUMTIME)
            active.discard(func)
        shares[func] = result
        return result

    def spread(callers, column) -> dict[str, float]:
        total = sum(entry[column] for entry in callers.values())
        if total <= 0:
            return {"other": 1.0}
        result: dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            for bucket, fraction in share_of(caller).items():
                result[bucket] += fraction * entry[column] / total
        return result

    seconds = dict.fromkeys(buckets, 0.0)
    for func, (_, _, tottime, _, callers) in stats.items():
        bucket = owner(func)
        split = {bucket: 1.0} if bucket is not None else spread(callers, _TOTTIME)
        for name, fraction in split.items():
            seconds[name] += tottime * fraction
    return seconds
