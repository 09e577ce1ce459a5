"""Algorithm 3 — the leader's signal-driven state machine.

The leader holds two public values: ``gen``, the highest generation any
node is currently allowed to reach (initially 1), and ``prop``, whether
propagation steps into generation ``gen`` are allowed (initially False,
i.e. two-choices only). It never acts on its own clock; it reacts to
incoming *i-signals*:

* ``i = 0`` (sent by every node at every tick) increments the tick
  counter ``t``; when ``t`` reaches ``C3·n`` the leader sets
  ``prop ← True``, ending the two-choices phase (Proposition 16: the
  phase lasts ≈ 2 time units);
* ``i = gen`` (sent by nodes promoted to the newest generation)
  increments ``gen_size``; when ``gen_size`` reaches ``⌈n/2⌉`` and the
  generation budget is not exhausted the leader births the next
  generation: ``gen += 1``, ``t ← 0``, ``prop ← False``.

:class:`~repro.core.single_leader.SingleLeaderSim` does not pass
0-signals through :meth:`Leader.on_signal`: it counts them on the
simulator's tally stream, closes the two-choices window from the tally
trigger, and copies the counts into ``zero_signals`` / ``tick_count``
wherever they are read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import SingleLeaderParams

__all__ = ["Leader", "LeaderPhaseChange"]


@dataclass(frozen=True, slots=True)
class LeaderPhaseChange:
    """One leader transition, for phase-timeline experiments.

    ``kind`` is ``"generation"`` when a new generation is allowed and
    ``"propagation"`` when the two-choices window closed.
    """

    kind: str
    time: float
    generation: int


class Leader:
    """The designated leader node (Algorithm 3).

    The leader's memory is O(log n) bits: ``gen``,
    one propagation bit, and two counters bounded by ``C3·n``.
    """

    def __init__(self, params: SingleLeaderParams):
        self._params = params
        self.gen = 1
        self.prop = False
        self.tick_count = 0
        self.gen_size = 0
        #: Chronological log of every state transition.
        self.phase_changes: list[LeaderPhaseChange] = []
        #: Total signals received, by kind (telemetry).
        self.zero_signals = 0
        self.gen_signals = 0

    @property
    def state(self) -> tuple[int, bool]:
        """The publicly readable ``(gen, prop)`` pair."""
        return self.gen, self.prop

    def on_signal(self, i: int, time: float) -> None:
        """Handle one incoming i-signal at simulated ``time``."""
        if i == 0:
            self.zero_signals += 1
            self.tick_count += 1
            if self.tick_count == self._params.prop_signal_threshold and not self.prop:
                self.prop = True
                self.phase_changes.append(
                    LeaderPhaseChange(kind="propagation", time=time, generation=self.gen)
                )
            return
        if i == self.gen:
            self.gen_signals += 1
            self.gen_size += 1
            if (
                self.gen_size >= self._params.gen_size_threshold
                and self.gen < self._params.max_generation
            ):
                self.gen += 1
                self.tick_count = 0
                self.gen_size = 0
                self.prop = False
                self.phase_changes.append(
                    LeaderPhaseChange(kind="generation", time=time, generation=self.gen)
                )

    def generation_birth_times(self) -> dict[int, float]:
        """Map generation index -> time the leader first allowed it."""
        births = {1: 0.0}
        for change in self.phase_changes:
            if change.kind == "generation":
                births[change.generation] = change.time
        return births

    def propagation_times(self) -> dict[int, float]:
        """Map generation index -> time its two-choices window closed."""
        return {
            change.generation: change.time
            for change in self.phase_changes
            if change.kind == "propagation"
        }
