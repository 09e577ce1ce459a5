"""Figure 1 + Remark 14 + Example 15 — regenerate and time.

The only data figure in the paper: ``F^{-1}(0.9)`` vs ``1/λ``. The bench
asserts the series' load-bearing shape (linear growth in ``1/λ``, the
value ≈ 9.13 at ``λ = 1`` matching the figure's left edge) and records
the exact-vs-Monte-Carlo agreement.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow  # experiment-backed; minutes at seed pace

from repro.engine.latency import time_unit_steps


def test_bench_fig1(run_and_save):
    result = run_and_save("fig1")
    rows = result.tables[0].rows
    inverse = [row[0] for row in rows]
    exact = [row[1] for row in rows]
    # Figure 1's shape: linear growth in 1/lambda on log-log axes.
    assert exact[0] == pytest.approx(9.13, abs=0.05)
    assert exact[-1] / exact[0] == pytest.approx(inverse[-1] / inverse[0], rel=0.25)
    # Monte-Carlo agrees with the phase-type computation everywhere.
    assert all(row[-1] < 0.02 for row in rows)


def test_bench_quantile_computation(benchmark):
    """Microbench: one exact hypoexponential quantile solve (unmemoized)."""
    value = benchmark(lambda: time_unit_steps.__wrapped__(0.1))
    assert value > 0
