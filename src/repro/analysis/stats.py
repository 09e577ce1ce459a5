"""Summary statistics for repeated stochastic runs.

Experiments repeat every configuration over independent seeds; these
helpers condense the resulting samples into means, spreads, and
bootstrap confidence intervals for the experiment tables
(``repro reproduce --out``, ``benchmarks/output/``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Summary", "summarize", "bootstrap_ci", "geometric_mean"]


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    median: float
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        half = 1.96 * self.sem
        return self.mean - half, self.mean + half

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.sem:.2g} (median {self.median:.3g}, n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary`; rejects empty samples loudly.

    The mean uses :func:`math.fsum` (exact summation) and is clamped
    into ``[minimum, maximum]``: numpy's pairwise summation can round
    the mean of n equal values to just outside the sample range (e.g.
    three copies of ``349525.7865401887``), violating the ordering
    invariant ``min <= mean <= max`` that downstream tables rely on.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    minimum = float(array.min())
    maximum = float(array.max())
    mean = math.fsum(array) / array.size
    mean = min(max(mean, minimum), maximum)
    return Summary(
        count=int(array.size),
        mean=mean,
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        median=float(np.median(array)),
        minimum=minimum,
        maximum=maximum,
    )


def bootstrap_ci(
    values: Sequence[float],
    rng: np.random.Generator,
    *,
    level: float = 0.95,
    resamples: int = 2000,
    statistic=np.mean,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot bootstrap an empty sample")
    if not (0.0 < level < 1.0):
        raise ConfigurationError(f"level must be in (0,1), got {level}")
    draws = rng.integers(array.size, size=(resamples, array.size))
    stats = statistic(array[draws], axis=1)
    lower = float(np.quantile(stats, (1.0 - level) / 2.0))
    upper = float(np.quantile(stats, 1.0 - (1.0 - level) / 2.0))
    return lower, upper


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; natural for ratios like measured/predicted time."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot average an empty sample")
    if np.any(array <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))
