"""Argument validation helpers used across parameter dataclasses.

Each helper raises :class:`repro.errors.ConfigurationError` with a message
that names the offending parameter, so configuration mistakes surface at
construction time with actionable errors instead of failing deep inside a
simulation run.
"""

from __future__ import annotations

import math
from typing import SupportsFloat, SupportsInt

from repro.errors import ConfigurationError


def _as_float(name: str, value: SupportsFloat) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None


def check_positive(name: str, value: SupportsFloat) -> float:
    """Return ``value`` as float, requiring it to be finite and ``> 0``."""
    value = _as_float(name, value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_positive_int(name: str, value: SupportsInt, *, minimum: int = 1) -> int:
    """Return ``value`` as int, requiring ``value >= minimum``."""
    as_int = int(value)
    if as_int != float(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if as_int < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {as_int}")
    return as_int


def check_nonnegative(name: str, value: SupportsFloat) -> float:
    """Return ``value`` as float, requiring it to be ``>= 0`` (``inf`` allowed)."""
    value = _as_float(name, value)
    if not value >= 0.0:
        raise ConfigurationError(f"{name} must be a number >= 0, got {value!r}")
    return value


def check_probability(name: str, value: SupportsFloat) -> float:
    """Return ``value`` as float, requiring it to lie in ``[0, 1]``."""
    value = _as_float(name, value)
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: SupportsFloat) -> float:
    """Return ``value`` as float, requiring it to lie in the open ``(0, 1)``."""
    value = _as_float(name, value)
    if not (0.0 < value < 1.0):
        raise ConfigurationError(f"{name} must lie in the open interval (0, 1), got {value!r}")
    return value
