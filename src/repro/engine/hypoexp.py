"""Hypoexponential (sum-of-exponentials) distributions.

The paper's full-cycle waiting time ``T3`` — the time between two *good*
ticks of a node plus the channel-establishment latencies after the second
tick — is a sum of independent exponential random variables: using the
order-statistics decomposition ``max(E_a, E_b) = Exp(2λ) + Exp(λ)`` for
i.i.d. ``Exp(λ)`` variables,

    T3 = T2' + T1 + T2'          with  T2' = max(Exp λ, Exp λ) + Exp λ
       = Exp(2λ)+Exp(λ)+Exp(λ) + Exp(1) + Exp(2λ)+Exp(λ)+Exp(λ).

Sums of independent exponentials with (possibly repeated) rates follow a
*hypoexponential* (acyclic phase-type) distribution. This module
implements its CDF exactly via the phase-type matrix exponential

    F(t) = 1 − α · exp(T·t) · 1,

with ``T`` the upper-bidiagonal generator of the chain that passes
through one phase per exponential. This is numerically robust even with
repeated rates, where the classical partial-fraction formula breaks down.
The matrix exponential is the Padé-13 scaling-and-squaring method of
Higham (2005), "The scaling and squaring method for the matrix
exponential revisited", written in numpy (:func:`expm`): the cycle-time
generators have at most 11 phases, and SciPy would double the package's
import time for this one function.

The time-unit constant of the paper, ``C1 = F^{-1}(0.9)`` (Section 3.1),
and the entire Figure 1 series are computed from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Hypoexponential", "expm"]

# Higham (2005): θ13, the largest 1-norm at which the degree-13 Padé
# approximant of exp is accurate to double precision, and that
# approximant's coefficients b_0 ... b_13.
_THETA13 = 5.371920351148152
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Padé-13 scaling and squaring (Higham 2005).

    Scales ``a`` by ``2**-s`` until its 1-norm is at most ``θ13``,
    evaluates ``r13 = (V - U)^{-1} (V + U)`` and squares ``s`` times.
    """
    norm = float(np.linalg.norm(a, 1))
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


@dataclass(frozen=True)
class Hypoexponential:
    """Distribution of a sum of independent exponential random variables.

    Parameters
    ----------
    rates:
        The rate of each exponential stage. Repeated rates are allowed
        (Erlang stages).

    Examples
    --------
    >>> d = Hypoexponential((2.0, 1.0, 1.0))
    >>> abs(d.mean - 2.5) < 1e-12
    True
    >>> 0.0 <= d.cdf(1.0) <= 1.0
    True
    """

    rates: tuple[float, ...]

    def __init__(self, rates: Sequence[float]):
        rates = tuple(float(rate) for rate in rates)
        if not rates:
            raise ConfigurationError("Hypoexponential requires at least one stage")
        if any(rate <= 0 or not math.isfinite(rate) for rate in rates):
            raise ConfigurationError(f"all rates must be finite and positive, got {rates}")
        object.__setattr__(self, "rates", rates)

    @property
    def mean(self) -> float:
        """``E[X] = sum(1/rate_i)``."""
        return sum(1.0 / rate for rate in self.rates)

    @property
    def variance(self) -> float:
        """``Var[X] = sum(1/rate_i^2)`` (stages are independent)."""
        return sum(1.0 / rate**2 for rate in self.rates)

    def _generator(self) -> np.ndarray:
        size = len(self.rates)
        gen = np.zeros((size, size))
        for index, rate in enumerate(self.rates):
            gen[index, index] = -rate
            if index + 1 < size:
                gen[index, index + 1] = rate
        return gen

    def cdf(self, t: float) -> float:
        """Exact CDF ``P(X <= t)`` via the phase-type matrix exponential."""
        if t <= 0:
            return 0.0
        transient = expm(self._generator() * t)
        survival = float(transient[0, :].sum())
        return min(1.0, max(0.0, 1.0 - survival))

    def sf(self, t: float) -> float:
        """Survival function ``P(X > t)``."""
        return 1.0 - self.cdf(t)

    def quantile(self, q: float, *, tol: float = 1e-10) -> float:
        """Inverse CDF by bisection.

        Parameters
        ----------
        q:
            Target probability in the open interval (0, 1).
        tol:
            Absolute tolerance on the returned time.
        """
        if not (0.0 < q < 1.0):
            raise ConfigurationError(f"quantile level must be in (0, 1), got {q}")
        low, high = 0.0, max(self.mean, 1e-9)
        while self.cdf(high) < q:
            high *= 2.0
            if high > 1e12:  # pragma: no cover - unreachable for valid rates
                raise ConfigurationError("quantile bracket expansion failed")
        while high - low > tol * max(1.0, high):
            mid = 0.5 * (low + high)
            if self.cdf(mid) < q:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        """Draw samples by summing independent exponential stages."""
        if size is None:
            return float(sum(rng.exponential(1.0 / rate) for rate in self.rates))
        total = np.zeros(size)
        for rate in self.rates:
            total += rng.exponential(1.0 / rate, size=size)
        return total

    @staticmethod
    def maximum_of_iid(rate: float, count: int) -> "Hypoexponential":
        """Distribution of ``max`` of ``count`` i.i.d. ``Exp(rate)`` variables.

        Order statistics: the maximum equals the sum of independent
        spacings ``Exp(count·rate) + Exp((count-1)·rate) + ... + Exp(rate)``.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        return Hypoexponential([rate * j for j in range(count, 0, -1)])

    def plus(self, other: "Hypoexponential") -> "Hypoexponential":
        """Distribution of the independent sum of this and ``other``."""
        return Hypoexponential(self.rates + other.rates)
