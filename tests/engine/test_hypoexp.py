"""Tests for the hypoexponential (phase-type) distribution."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hypoexp import Hypoexponential, expm
from repro.engine.latency import ChannelPlan, time_unit_steps
from repro.errors import ConfigurationError

SRC = Path(__file__).resolve().parents[2] / "src"
#: ``time_unit_steps`` as ``float.hex()`` over the grid of
#: ``test_time_units_match_golden``, computed with ``scipy.linalg.expm``
#: before the numpy ``expm`` replaced it. Never regenerate it: a time
#: unit that moves changes cached records under an unchanged cache key.
GOLDEN_TIME_UNITS = Path(__file__).parent / "golden_time_units.json"
GOLDEN_RATES = (0.1, 0.2, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0)

rates_strategy = st.lists(
    st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=6
)


class TestConstruction:
    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            Hypoexponential([])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_rate_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Hypoexponential([1.0, bad])

    def test_mean_and_variance(self):
        dist = Hypoexponential([2.0, 4.0])
        assert dist.mean == pytest.approx(0.5 + 0.25)
        assert dist.variance == pytest.approx(0.25 + 0.0625)


class TestCdf:
    def test_single_stage_matches_exponential(self):
        dist = Hypoexponential([3.0])
        for t in (0.1, 0.5, 1.0, 2.0):
            assert dist.cdf(t) == pytest.approx(1.0 - math.exp(-3.0 * t), abs=1e-9)

    def test_erlang_two_closed_form(self):
        # Erlang(2, λ): F(t) = 1 - e^{-λt}(1 + λt).
        lam = 2.0
        dist = Hypoexponential([lam, lam])
        for t in (0.2, 1.0, 3.0):
            expected = 1.0 - math.exp(-lam * t) * (1.0 + lam * t)
            assert dist.cdf(t) == pytest.approx(expected, abs=1e-9)

    def test_distinct_rates_closed_form(self):
        # Sum of Exp(1) + Exp(2): F(t) = 1 - 2e^{-t} + e^{-2t}.
        dist = Hypoexponential([1.0, 2.0])
        for t in (0.3, 1.0, 2.5):
            expected = 1.0 - 2.0 * math.exp(-t) + math.exp(-2.0 * t)
            assert dist.cdf(t) == pytest.approx(expected, abs=1e-9)

    def test_cdf_zero_below_origin(self):
        dist = Hypoexponential([1.0])
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(-5.0) == 0.0

    def test_sf_complements_cdf(self):
        dist = Hypoexponential([1.0, 3.0])
        assert dist.sf(1.2) == pytest.approx(1.0 - dist.cdf(1.2))

    @given(rates_strategy)
    @settings(max_examples=25, deadline=None)
    def test_cdf_monotone_and_bounded(self, rates):
        dist = Hypoexponential(rates)
        times = [0.1 * dist.mean, dist.mean, 3.0 * dist.mean]
        values = [dist.cdf(t) for t in times]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values)


class TestQuantile:
    def test_quantile_inverts_cdf(self):
        dist = Hypoexponential([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        for q in (0.1, 0.5, 0.9, 0.99):
            t = dist.quantile(q)
            assert dist.cdf(t) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_level_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Hypoexponential([1.0]).quantile(bad)

    def test_exponential_median(self):
        dist = Hypoexponential([1.0])
        assert dist.quantile(0.5) == pytest.approx(math.log(2.0), abs=1e-6)


class TestSampling:
    def test_sample_mean_matches(self, rng):
        dist = Hypoexponential([2.0, 1.0, 1.0])
        samples = dist.sample(rng, size=200_000)
        assert float(np.mean(samples)) == pytest.approx(dist.mean, rel=0.02)

    def test_scalar_sample(self, rng):
        value = Hypoexponential([1.0]).sample(rng)
        assert isinstance(value, float)
        assert value > 0

    def test_sample_quantile_matches_cdf(self, rng):
        dist = Hypoexponential([2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0])
        samples = dist.sample(rng, size=100_000)
        empirical = float(np.quantile(samples, 0.9))
        assert empirical == pytest.approx(dist.quantile(0.9), rel=0.03)


class TestComposition:
    def test_maximum_of_iid_rates(self):
        dist = Hypoexponential.maximum_of_iid(1.0, 3)
        assert dist.rates == (3.0, 2.0, 1.0)

    def test_maximum_of_iid_invalid_count(self):
        with pytest.raises(ConfigurationError):
            Hypoexponential.maximum_of_iid(1.0, 0)

    def test_maximum_of_iid_matches_monte_carlo(self, rng):
        dist = Hypoexponential.maximum_of_iid(2.0, 2)
        direct = np.maximum(
            rng.exponential(0.5, size=100_000), rng.exponential(0.5, size=100_000)
        )
        assert float(np.mean(direct)) == pytest.approx(dist.mean, rel=0.02)

    def test_plus_concatenates_stages(self):
        combined = Hypoexponential([1.0]).plus(Hypoexponential([2.0, 3.0]))
        assert combined.rates == (1.0, 2.0, 3.0)
        assert combined.mean == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)


class TestExpm:
    """The numpy Padé-13 ``expm`` against SciPy and closed forms."""

    def test_matches_scipy_on_bidiagonal_generators(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2005)
        for _ in range(100):
            size = int(rng.integers(1, 12))
            rates = rng.uniform(0.05, 16.0, size)
            if rng.random() < 0.3:
                rates = np.repeat(rates[:1], size)
            generator = Hypoexponential(rates)._generator()
            times = np.concatenate(([0.01, 60.0], 10 ** rng.uniform(-2, math.log10(60), 3)))
            for t in times:
                ours = expm(generator * t)
                reference = scipy_linalg.expm(generator * t)
                assert np.abs(ours - reference).max() <= 1e-13, (rates, t)

    @pytest.mark.parametrize("stages", [1, 2, 3, 7, 11])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 8.0])
    def test_repeated_rates_match_erlang_cdf(self, stages, lam):
        # Erlang(m, λ): F(t) = 1 - e^{-λt} Σ_{i<m} (λt)^i / i!.
        dist = Hypoexponential([lam] * stages)
        for t in (0.01, 0.5, 1.0, 5.0, 20.0, 60.0):
            x = lam * t
            tail = sum(x**i / math.factorial(i) for i in range(stages))
            assert dist.cdf(t) == pytest.approx(1.0 - math.exp(-x) * tail, abs=1e-13)

    def test_time_units_match_golden(self):
        golden = json.loads(GOLDEN_TIME_UNITS.read_text())
        computed = {}
        for plan in ChannelPlan:
            for random_contacts, leader_contacts in ((2, 1), (3, 2)):
                for rate in GOLDEN_RATES:
                    key = f"{plan.value}/{random_contacts}+{leader_contacts}/{rate!r}"
                    computed[key] = time_unit_steps.__wrapped__(
                        rate,
                        random_contacts=random_contacts,
                        leader_contacts=leader_contacts,
                        plan=plan,
                    ).hex()
        assert len(golden) == 48
        assert computed == golden


class TestNoScipyAtRuntime:
    def test_import_loads_no_scipy(self):
        probe = (
            "import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_src_has_no_scipy_import(self):
        pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
