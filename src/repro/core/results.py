"""Result types shared by all protocol simulators.

Every runner returns a :class:`RunResult` so experiments and tests can
treat synchronous rounds and asynchronous continuous time uniformly:
``elapsed`` is *steps* for Algorithm 1 and *simulated time* for
Algorithms 2–5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.bias import multiplicative_bias

__all__ = ["StepStats", "GenerationBirth", "RunResult"]


@dataclass(frozen=True, slots=True)
class StepStats:
    """Population summary at one instant of a run."""

    time: float
    top_generation: int
    top_generation_fraction: float
    plurality_fraction: float
    bias: float

    def as_dict(self) -> dict[str, float]:
        return {
            "time": self.time,
            "top_generation": self.top_generation,
            "top_generation_fraction": self.top_generation_fraction,
            "plurality_fraction": self.plurality_fraction,
            "bias": self.bias,
        }


def _top_generation(matrix: np.ndarray, n: int) -> tuple[int, float]:
    """``(top, share)``: the highest occupied generation and its fraction."""
    per_generation = matrix.sum(axis=1)
    occupied = np.nonzero(per_generation)[0]
    top = int(occupied[-1]) if occupied.size else 0
    return top, float(per_generation[top]) / n


def _matrix_stats(matrix: np.ndarray, n: int, time: float) -> StepStats:
    """Summary statistics from a generation×color count matrix."""
    top, top_fraction = _top_generation(matrix, n)
    color_counts = matrix.sum(axis=0)
    return StepStats(
        time=time,
        top_generation=top,
        top_generation_fraction=top_fraction,
        plurality_fraction=float(color_counts.max()) / n,
        bias=multiplicative_bias(color_counts),
    )


@dataclass(frozen=True, slots=True)
class GenerationBirth:
    """Snapshot taken when a new generation first appears.

    ``bias`` and ``collision_probability`` are measured *within* the
    newborn generation — the quantities the paper's Lemmas 4/5 and
    Remark 2 reason about.
    """

    generation: int
    time: float
    fraction: float
    bias: float
    collision_probability: float


@dataclass
class RunResult:
    """Outcome of one protocol run.

    Attributes
    ----------
    converged:
        Whether full consensus (a single surviving color) was reached
        within the budget.
    winner:
        The consensus color, or the current plurality color if the run
        stopped early.
    plurality_color:
        The *initially* dominant color.
    elapsed:
        Steps (synchronous) or simulated time (asynchronous) consumed.
    epsilon_convergence_time:
        First time the initially dominant color covered a ``1 − ε``
        fraction, if an ``ε`` target was configured; else ``None``.
    final_color_counts:
        Color support at the end of the run.
    trajectory:
        Optional per-step/periodic :class:`StepStats`.
    births:
        One :class:`GenerationBirth` per generation created.
    info:
        Free-form per-protocol extras (signal counts, phase times, ...).
    """

    converged: bool
    winner: int
    plurality_color: int
    elapsed: float
    final_color_counts: np.ndarray
    epsilon_convergence_time: float | None = None
    trajectory: list[StepStats] = field(default_factory=list)
    births: list[GenerationBirth] = field(default_factory=list)
    info: dict[str, float] = field(default_factory=dict)

    @property
    def plurality_won(self) -> bool:
        """Did the initially dominant color win (or currently lead)?"""
        return self.winner == self.plurality_color

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "consensus" if self.converged else "no-consensus"
        return (
            f"{status} winner={self.winner} plurality={self.plurality_color} "
            f"ok={self.plurality_won} elapsed={self.elapsed:.2f}"
        )
