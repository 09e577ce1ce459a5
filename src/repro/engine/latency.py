"""Edge-latency models and channel-establishment plans.

In the paper's asynchronous model, opening a communication channel takes
an exponentially distributed time with constant rate ``λ`` (Section 3.1).
This module provides:

* :class:`LatencyModel` implementations — the paper's
  :class:`ExponentialLatency` plus :class:`ConstantLatency` and
  :class:`GammaLatency` for sensitivity studies (Section 5 asks whether
  results carry over to more general delay distributions);
* :class:`ChannelPlan` values describing *how* a node opens its channels
  within one protocol cycle — the paper's plan opens the channels to the
  two (or three) random contacts concurrently, waits for all of them,
  and then contacts the leader(s) (footnote 3); the alternative
  sequential plan matches Example 15's accumulation ``T1 + 3·T2``;
* the full-cycle waiting-time distribution ``T3`` (Section 3.1) as a
  :class:`~repro.engine.hypoexp.Hypoexponential`, from which the
  time-unit constant ``C1 = F^{-1}(0.9)`` and all of Figure 1 follow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.engine.hypoexp import Hypoexponential
from repro.errors import ConfigurationError
from repro.util.validation import check_positive

__all__ = [
    "LatencyModel",
    "ExponentialLatency",
    "ConstantLatency",
    "GammaLatency",
    "ChannelPlan",
    "cycle_distribution",
    "time_unit_steps",
    "empirical_time_unit",
    "remark14_bound",
    "remark14_valid_bound",
    "example15_mean",
]


class LatencyModel:
    """Distribution of the time needed to establish one channel."""

    mean: float

    def draw(self, rng: np.random.Generator, size: int | None = None):
        """Draw one latency (``size=None``) or a vector of ``size`` latencies."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "LatencyModel":
        """The same law with every draw multiplied by ``factor``.

        The weighted-edge seam: a sparse substrate with per-edge
        multipliers (:attr:`repro.scenarios.topology.SparseGraph.weights`)
        makes a channel over edge ``e`` distribute as
        ``model.scaled(w_e)``.  The event engines apply the factor to
        pooled draws directly (cheaper); this constructor exists for
        closed-form reporting, e.g. feeding
        :func:`empirical_time_unit` the per-edge law.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialLatency(LatencyModel):
    """The paper's latency: ``Exp(rate)`` with constant rate ``λ``."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def draw(self, rng: np.random.Generator, size: int | None = None):
        return rng.exponential(1.0 / self.rate, size=size)

    def scaled(self, factor: float) -> "ExponentialLatency":
        """Scaling an exponential divides its rate: ``Exp(rate / factor)``."""
        return ExponentialLatency(self.rate / check_positive("factor", factor))


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Deterministic latency; useful as a degenerate sanity baseline."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value < 0 or not math.isfinite(self.value):
            raise ConfigurationError(f"latency value must be finite and >= 0, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    def draw(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def scaled(self, factor: float) -> "ConstantLatency":
        return ConstantLatency(self.value * check_positive("factor", factor))


@dataclass(frozen=True)
class GammaLatency(LatencyModel):
    """``Gamma(shape, rate)`` latency — heavier or lighter tails than Exp."""

    shape: float = 2.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        check_positive("shape", self.shape)
        check_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def draw(self, rng: np.random.Generator, size: int | None = None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def scaled(self, factor: float) -> "GammaLatency":
        """Scaling a Gamma divides its rate (shape is scale-free)."""
        return GammaLatency(shape=self.shape, rate=self.rate / check_positive("factor", factor))


class ChannelPlan(Enum):
    """How a node's channels are opened within one cycle.

    ``CONCURRENT_THEN_LEADER``
        The paper's plan: channels to the random contacts are opened
        concurrently (wait for the max), then the channel(s) to the
        leader(s) are opened. For two random contacts and one leader
        this gives ``T2' = max(T2, T2) + T2``.
    ``SEQUENTIAL``
        All channels opened one after another: ``T2' = sum of T2``
        (the accumulation used in Example 15).
    """

    CONCURRENT_THEN_LEADER = "concurrent-then-leader"
    SEQUENTIAL = "sequential"


def _establishment_rates(
    rate: float, random_contacts: int, leader_contacts: int, plan: ChannelPlan
) -> list[float]:
    """Exponential-stage rates of one cycle's channel-establishment time."""
    if random_contacts < 0 or leader_contacts < 0 or random_contacts + leader_contacts == 0:
        raise ConfigurationError(
            "need a non-negative number of contacts and at least one channel per cycle"
        )
    if plan is ChannelPlan.SEQUENTIAL:
        return [rate] * (random_contacts + leader_contacts)
    stages: list[float] = []
    if random_contacts:
        stages.extend(Hypoexponential.maximum_of_iid(rate, random_contacts).rates)
    if leader_contacts:
        # Leaders are contacted after the random contacts responded; if
        # there are several leaders they are contacted concurrently.
        stages.extend(Hypoexponential.maximum_of_iid(rate, leader_contacts).rates)
    return stages


def cycle_distribution(
    latency_rate: float,
    *,
    clock_rate: float = 1.0,
    random_contacts: int = 2,
    leader_contacts: int = 1,
    plan: ChannelPlan = ChannelPlan.CONCURRENT_THEN_LEADER,
) -> Hypoexponential:
    """Distribution of the full-cycle waiting time ``T3`` (Section 3.1).

    ``T3 ~ T2' + T1 + T2'`` — the channel-establishment time of the
    previous cycle, the exponential waiting time for the next tick, and
    the establishment time of the new cycle's channels.

    Parameters
    ----------
    latency_rate:
        ``λ`` of the exponential edge latency.
    clock_rate:
        Rate of the node's Poisson clock (``1`` in the paper).
    random_contacts, leader_contacts:
        Channels opened per cycle (2+1 in Algorithm 2, 3+2 in Algorithm 4).
    plan:
        Channel-establishment plan (see :class:`ChannelPlan`).
    """
    check_positive("latency_rate", latency_rate)
    check_positive("clock_rate", clock_rate)
    establishment = _establishment_rates(latency_rate, random_contacts, leader_contacts, plan)
    return Hypoexponential(establishment + [clock_rate] + establishment)


@functools.cache
def time_unit_steps(
    latency_rate: float,
    *,
    quantile: float = 0.9,
    clock_rate: float = 1.0,
    random_contacts: int = 2,
    leader_contacts: int = 1,
    plan: ChannelPlan = ChannelPlan.CONCURRENT_THEN_LEADER,
) -> float:
    """The paper's time-unit constant ``C1 = F^{-1}(quantile)``.

    A *time unit* consists of ``C1`` time steps, chosen so that within
    any interval of that length a node completes a full protocol cycle
    with probability ``quantile`` (0.9 in the paper). This is the
    quantity plotted in Figure 1.

    Memoized per argument set: the quantile bisection costs dozens of
    matrix exponentials, and every protocol parameter object derives
    its time unit here.  ``time_unit_steps.__wrapped__`` is the
    unmemoized computation.
    """
    distribution = cycle_distribution(
        latency_rate,
        clock_rate=clock_rate,
        random_contacts=random_contacts,
        leader_contacts=leader_contacts,
        plan=plan,
    )
    return distribution.quantile(quantile)


def remark14_bound(latency_rate: float, *, clock_rate: float = 1.0) -> float:
    """Remark 14's closed-form bound: ``C1 < 10 / (3β)``, ``β = min(clock, λ)``.

    Derived by majorizing ``T3`` with a ``Γ(7, β)`` distribution.

    .. warning:: **Erratum (reproduction finding).** The paper's
       inequality (12) drops the ``e^{-βx}`` factor of the Erlang CDF
       (``F(x,α,β) = e^{-βx} Σ_{i≥α} (βx)^i/i!``), so the constant
       ``(0.9·7!)^{1/7} < 10/3`` does **not** upper-bound the 0.9
       quantile: for ``λ = 1`` the exact quantile is ≈ 9.13 (which
       matches Figure 1's ≈ 10¹), well above ``10/3``. The qualitative
       claim — ``C1 = Θ(1/β)`` — is still correct; see
       :func:`remark14_valid_bound` for a provable constant.
    """
    beta = min(clock_rate, check_positive("latency_rate", latency_rate))
    return 10.0 / (3.0 * beta)


def remark14_valid_bound(latency_rate: float, *, clock_rate: float = 1.0) -> float:
    """A provable replacement for Remark 14: ``C1 ≤ 70/β``.

    ``T3 ≼ Γ(7, β)`` with mean ``7/β``; Markov's inequality gives
    ``P(T3 > x) ≤ (7/β)/x``, so the 0.9 quantile is at most
    ``10 · 7/β = 70/β``. Loose but valid, and preserves the remark's
    ``Θ(1/β)`` scaling.
    """
    beta = min(clock_rate, check_positive("latency_rate", latency_rate))
    return 70.0 / beta


def empirical_time_unit(
    model: LatencyModel,
    rng: np.random.Generator,
    *,
    quantile: float = 0.9,
    clock_rate: float = 1.0,
    random_contacts: int = 2,
    leader_contacts: int = 1,
    plan: ChannelPlan = ChannelPlan.CONCURRENT_THEN_LEADER,
    samples: int = 100_000,
) -> float:
    """Monte-Carlo ``C1`` for an arbitrary latency distribution.

    The closed-form hypoexponential machinery only covers exponential
    latencies; Section 5 asks whether the results survive more general
    delay distributions. This estimator samples the full cycle time
    ``T3 = T2' + T1 + T2'`` directly and returns its empirical quantile,
    so experiments can measure protocols under Gamma or constant
    latencies in comparable *time units*.
    """
    check_positive("clock_rate", clock_rate)
    if random_contacts < 0 or leader_contacts < 0 or random_contacts + leader_contacts == 0:
        raise ConfigurationError("need at least one channel per cycle")

    def establishment() -> np.ndarray:
        if plan is ChannelPlan.SEQUENTIAL:
            total = np.zeros(samples)
            for _ in range(random_contacts + leader_contacts):
                total += model.draw(rng, size=samples)
            return total
        parts = np.zeros(samples)
        if random_contacts:
            draws = [model.draw(rng, size=samples) for _ in range(random_contacts)]
            parts += np.maximum.reduce(draws)
        if leader_contacts:
            draws = [model.draw(rng, size=samples) for _ in range(leader_contacts)]
            parts += np.maximum.reduce(draws)
        return parts

    cycle = establishment() + rng.exponential(1.0 / clock_rate, size=samples) + establishment()
    return float(np.quantile(cycle, quantile))


def example15_mean(latency_rate: float) -> float:
    """Example 15's mean cycle time ``E(T3) = 1 + 3/λ``.

    This corresponds to the sequential plan with three channels opened
    one after another and a rate-1 clock.
    """
    check_positive("latency_rate", latency_rate)
    return 1.0 + 3.0 / latency_rate
