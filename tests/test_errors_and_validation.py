"""Tests for the exception hierarchy and validation helpers."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestErrorHierarchy:
    def test_all_catchable_as_repro_error(self):
        for exc in (ConfigurationError, SimulationError, ConvergenceError, SchedulingError):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_simulation_error_is_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)

    def test_convergence_error_elapsed(self):
        error = ConvergenceError("no luck", elapsed=12.5)
        assert error.elapsed == 12.5


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"), "abc", None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", bad)


class TestCheckNonnegative:
    @pytest.mark.parametrize("ok", [0, 2.5, float("inf")])
    def test_accepts(self, ok):
        assert check_nonnegative("t", ok) == ok

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), "abc"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="t"):
            check_nonnegative("t", bad)


class TestCheckPositiveInt:
    def test_accepts(self):
        assert check_positive_int("n", 3) == 3

    def test_minimum_enforced(self):
        with pytest.raises(ConfigurationError):
            check_positive_int("n", 1, minimum=2)

    def test_non_integral_rejected(self):
        with pytest.raises(ConfigurationError):
            check_positive_int("n", 2.5)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_boundaries(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1, "abc"])
    def test_rejects_outside(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)


class TestCheckFraction:
    def test_accepts_interior(self):
        assert check_fraction("g", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, "abc"])
    def test_rejects_boundaries(self, bad):
        with pytest.raises(ConfigurationError):
            check_fraction("g", bad)
