"""Algorithm 4 — the node procedure of the decentralized consensus phase.

At each tick a clustered node ``v``:

1. sends a ``(0, 3, ·)`` signal to its own leader (time keeping);
2. if unlocked, locks and opens channels to three uniform samples
   ``v1, v2, v3`` concurrently, then to its own leader and to ``l``,
   the leader of ``v3``, concurrently;
3. once all channels are up (messages are instant): handles the
   *finished* flag (push own final color / adopt a sampled one), then
   — if the sampled cluster is active —

   * **two-choices** (``l.state = 1``): if both ``v1`` and ``v2`` sit in
     generation ``gen(l) − 1`` with equal colors, and their stored
     leader views agree with ``l`` (``in_sync``), adopt the color and
     promote to ``gen(l)``; report ``(gen, 1, True)``;
   * **propagation** (``l.state = 3``): if a sample sits in generation
     ``gen(l)`` (in sync with ``l``) above ``v``'s own generation,
     adopt it; report ``(gen, 3, True)``;
   * otherwise relay ``(gen(l), l.state, False)`` to the own leader —
     the carrier of the lexicographic leader synchronization;

4. stores its own leader's current ``(gen, state)`` (the ``tmp`` view
   used by *other* nodes' ``in_sync`` checks) and unlocks.

Nodes whose generation reaches the budget ``G*`` set ``finished`` and
push their color to every sample — the ``O(log n)`` full-consensus tail.
Unclustered nodes and members of inactive clusters take no actions but
receive pushes, exactly as in Theorem 27's accounting.

Engine notes: randomness comes from block-prefetched pools, events are
``(time, seq, bound_method, payload)`` tuples, and per-node state lives
in plain Python lists with numpy snapshot properties — see
:mod:`repro.core.single_leader` for the rationale.  An eligible run
(``K_n``, no tracer, no ``record_every``, no churn, none of the core's
handlers overridden) runs its event loop in the compiled core
(:mod:`repro.core.fastcore`), which repeats these handlers — and the
drop and straggler transforms of a
:class:`~repro.scenarios.faults.FaultInjection` wrapping the simulator —
draw for draw and writes the state back; this module stays its oracle
and fallback.
"""

from __future__ import annotations

import numpy as np

from repro.core import fastcore
from repro.core.results import GenerationBirth, RunResult, StepStats
from repro.engine.network import CompleteGraph
from repro.engine.rng import ChannelDelayPool, ExponentialPool
from repro.engine.simulator import Simulator, tick_times
from repro.errors import ConfigurationError
from repro.multileader.cluster_leader import (
    STATE_PROPAGATION,
    STATE_TWO_CHOICES,
    ClusterLeaderState,
)
from repro.multileader.clustering import Clustering, publish_phase_metrics
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import core_seam
from repro.workloads.bias import (
    collision_probability,
    multiplicative_bias,
    plurality_color,
    validate_counts,
)
from repro.workloads.opinions import counts_to_assignment

__all__ = ["MultiLeaderConsensusSim", "run_multileader_consensus"]


class MultiLeaderConsensusSim:
    """Event-driven simulator of Algorithms 4+5 on a given clustering."""

    def __init__(
        self,
        params: MultiLeaderParams,
        clustering: Clustering,
        counts: np.ndarray,
        rng: np.random.Generator,
        *,
        graph=None,
        simulator=None,
        tracer=None,
    ):
        if simulator is not None and tracer is not None:
            raise ConfigurationError(
                "pass the tracer to the pre-built simulator, not both"
            )
        if graph is None:
            graph = CompleteGraph(params.n)
        elif len(graph) != params.n:
            raise ConfigurationError(f"graph has {len(graph)} nodes but params.n={params.n}")
        elif getattr(graph, "min_degree", 1) < 1:
            raise ConfigurationError("graph has isolated nodes; contact sampling needs degree >= 1")
        counts = validate_counts(counts)
        if int(counts.sum()) != params.n:
            raise ConfigurationError(
                f"counts sum to {int(counts.sum())} but params.n={params.n}"
            )
        if counts.size != params.k:
            raise ConfigurationError(f"counts has {counts.size} colors, params.k={params.k}")
        if clustering.n != params.n:
            raise ConfigurationError("clustering size does not match params.n")
        self.params = params
        self.n = params.n
        self.k = params.k
        self.graph = graph
        self._rng = rng
        self.sim = Simulator(tracer=tracer) if simulator is None else simulator
        #: The core that ran the last run() ("c" or "python").
        self.core = "python"
        self._leader_of: list[int] = clustering.leader_of.tolist()

        self._tick_wait = ExponentialPool(rng, params.clock_rate)
        self._latency = ExponentialPool(rng, params.latency_rate)
        self._neighbors = graph.neighbor_pool(rng)
        self._sample_other = self._neighbors.sample
        # Three sample channels concurrently, then the two leader
        # channels concurrently — one composite pooled draw per cycle.
        self._channel_delay = ChannelDelayPool(rng, params.latency_rate, stages=(3, 2))

        sizes = clustering.cluster_sizes()
        self.leaders: dict[int, ClusterLeaderState] = {
            leader: ClusterLeaderState(leader, sizes[leader], params)
            for leader in clustering.active_leaders
        }
        if not self.leaders:
            raise ConfigurationError("clustering has no active leaders")
        self._tracer = self.sim.tracer
        self._trace_state = self._tracer.enabled_for("state")
        if self._tracer.enabled_for("phase"):
            for state in self.leaders.values():
                state.tracer = self._tracer
        if self._tracer.enabled_for("run"):
            self._tracer.record(
                "run", self.sim.now, protocol="multileader_consensus",
                n=self.n, k=self.k, counts=[int(c) for c in counts],
                leaders=len(self.leaders),
            )
        active_member = [leader in self.leaders for leader in self._leader_of]
        self._active_member = np.array(active_member)
        # Line 1's (0, 3, ·) signal is identical every tick for a given
        # node — precompute the dispatch payload once per node.
        self._tick_signal: list[tuple | None] = [
            (self.leaders[leader], 0, 3, False) if leader in self.leaders else None
            for leader in self._leader_of
        ]

        self._cols: list[int] = counts_to_assignment(counts, rng).tolist()
        self._gens: list[int] = [0] * self.n
        self._finished: list[bool] = [False] * self.n
        self._locked: list[bool] = [False] * self.n
        self._tmp_gen: list[int] = [0] * self.n
        self._tmp_state: list[int] = [0] * self.n

        rows = params.max_generation + 2
        self._matrix: list[list[int]] = [[0] * self.k for _ in range(rows)]
        self._matrix[0] = [int(c) for c in counts]
        self._color_counts: list[int] = [int(c) for c in counts]
        self.plurality = plurality_color(counts)
        self.births: list[GenerationBirth] = []
        self._birth_seen: list[bool] = [False] * rows
        self._birth_seen[0] = True
        self.trajectory: list[StepStats] = []
        self.good_ticks = 0
        self.total_ticks = 0

        # Convergence detection lives in _set_state (see
        # repro.core.single_leader), not in a per-event stop_when poll.
        self._eps_target: int | None = None
        self._eps_stop = False
        self._eps_time: float | None = None

        # One initial tick per active member (identical to the scalar
        # engine); the first tick grows each chain to a full window.
        self._window = self.sim.tick_window
        self._credit: list[int] = [1] * self.n
        schedule_in = self.sim.schedule_in
        tick = self._tick
        wait = self._tick_wait
        for node in range(self.n):
            if active_member[node]:
                schedule_in(wait(), tick, node)

    def _refill_window(self, node: int) -> None:
        """Next tick window + (0, 3, ·)-signal fan-out, two bulk inserts."""
        window = self._window
        sim = self.sim
        payload = self._tick_signal[node]
        if window == 1:
            # Event-granular fallback: the legacy draw/push sequence.
            sim.schedule_in(self._tick_wait(), self._tick, node)
            sim.schedule_in(self._latency(), self._deliver_signal, payload)
            return
        waits = self._tick_wait.take(window)
        lats = self._latency.take(window)
        # Soonest tick + the firing tick's signal as scalars; the rest
        # in two bulk blocks.
        ticks = tick_times(waits, sim.now)
        sim.schedule_in(lats[0], self._deliver_signal, payload)  # line 1
        sigs = [tick + lat for tick, lat in zip(ticks, lats[1:])]
        sim.schedule_in(waits[0], self._tick, node)
        sim.schedule_many_at(ticks[1:], self._tick, [node] * (window - 1))
        sim.schedule_many_at(sigs, self._deliver_signal, [payload] * (window - 1))
        self._credit[node] = window

    # ------------------------------------------------------------------
    # numpy snapshot views (external consumers: tests, experiments)
    # ------------------------------------------------------------------
    @property
    def leader_of(self) -> np.ndarray:
        """Per-node leader assignment, ``-1`` when unclustered (snapshot)."""
        return np.asarray(self._leader_of, dtype=np.int64)

    @property
    def cols(self) -> np.ndarray:
        """Per-node colors (snapshot array)."""
        return np.asarray(self._cols, dtype=np.int64)

    @property
    def gens(self) -> np.ndarray:
        """Per-node generations (snapshot array)."""
        return np.asarray(self._gens, dtype=np.int64)

    @property
    def finished(self) -> np.ndarray:
        """Per-node finished flags (snapshot array)."""
        return np.asarray(self._finished, dtype=bool)

    @property
    def locked(self) -> np.ndarray:
        """Per-node locked flags (snapshot array)."""
        return np.asarray(self._locked, dtype=bool)

    @property
    def tmp_gen(self) -> np.ndarray:
        """Stored own-leader generation per node (snapshot array)."""
        return np.asarray(self._tmp_gen, dtype=np.int64)

    @property
    def tmp_state(self) -> np.ndarray:
        """Stored own-leader state per node (snapshot array)."""
        return np.asarray(self._tmp_state, dtype=np.int64)

    @property
    def matrix(self) -> np.ndarray:
        """Generation×color count matrix (snapshot array)."""
        return np.asarray(self._matrix, dtype=np.int64)

    @property
    def color_counts(self) -> np.ndarray:
        """Current per-color node counts (snapshot array)."""
        return np.asarray(self._color_counts, dtype=np.int64)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _signal(self, leader: int, i: int, s: int, has_changed: bool) -> None:
        state = self.leaders.get(leader)
        if state is None:
            return
        self.sim.schedule_in(
            self._latency(), self._deliver_signal, (state, i, s, has_changed)
        )

    def _deliver_signal(
        self, payload: tuple[ClusterLeaderState, int, int, bool]
    ) -> None:
        state, i, s, has_changed = payload
        state.on_signal(i, s, has_changed, self.sim.now)

    def _tick(self, node: int) -> None:
        self.total_ticks += 1
        credit = self._credit
        c = credit[node] - 1
        if c:
            credit[node] = c
        else:
            self._refill_window(node)
        if self._locked[node]:
            return
        self._locked[node] = True
        self.good_ticks += 1
        v1 = self._sample_other(node)
        v2 = self._sample_other(node)
        v3 = self._sample_other(node)
        self.sim.schedule_in(self._channel_delay(), self._exchange, (node, v1, v2, v3))

    def _exchange(self, payload: tuple[int, int, int, int]) -> None:
        node, v1, v2, v3 = payload
        leader_of = self._leader_of
        finished = self._finished
        gens = self._gens
        cols = self._cols
        own_leader = self.leaders.get(leader_of[node])
        # Lines 5-7: finished-flag push / pull.
        if finished[node]:
            col = cols[node]
            for sample in (v1, v2, v3):
                self._set_state(sample, gens[sample], col)
                finished[sample] = True
            self._locked[node] = False
            return
        for sample in (v1, v2, v3):
            if finished[sample]:
                self._set_state(node, gens[node], cols[sample])
                finished[node] = True
                self._locked[node] = False
                return

        sampled_leader = self.leaders.get(leader_of[v3])
        if sampled_leader is None:
            # Line 8: non-active cluster sampled — abort the cycle.
            self._locked[node] = False
            return
        l_gen = sampled_leader.gen
        l_state = sampled_leader.state
        own_gen = gens[node]
        gen_a, col_a = gens[v1], cols[v1]
        gen_b, col_b = gens[v2], cols[v2]
        tmp_gen = self._tmp_gen
        tmp_state = self._tmp_state
        in_sync_a = tmp_gen[v1] == l_gen and tmp_state[v1] == l_state
        in_sync_b = tmp_gen[v2] == l_gen and tmp_state[v2] == l_state
        promoted = False
        if (
            l_state == STATE_TWO_CHOICES
            and gen_a == gen_b == l_gen - 1
            and col_a == col_b
            and own_gen <= gen_a
            and in_sync_a
            and in_sync_b
        ):
            self._set_state(node, l_gen, col_a)
            self._signal(leader_of[node], l_gen, STATE_TWO_CHOICES, True)
            promoted = True
        elif l_state == STATE_PROPAGATION:
            candidate = -1
            if gen_a == l_gen and own_gen < gen_a and in_sync_a:
                candidate = v1
            elif gen_b == l_gen and own_gen < gen_b and in_sync_b:
                candidate = v2
            if candidate >= 0:
                self._set_state(node, gens[candidate], cols[candidate])
                self._signal(leader_of[node], gens[node], STATE_PROPAGATION, True)
                promoted = True
        if not promoted:
            # Line 18: relay the sampled leader's state to the own leader.
            self._signal(leader_of[node], l_gen, l_state, False)
        # Line 19: refresh the stored view of the *own* leader.
        if own_leader is not None:
            tmp_gen[node] = own_leader.gen
            tmp_state[node] = own_leader.state
        # Line 20: the generation budget is the finish line.
        if gens[node] >= self.params.max_generation:
            finished[node] = True
        self._locked[node] = False

    def _set_state(self, node: int, gen: int, col: int) -> None:
        gens = self._gens
        cols = self._cols
        old_gen, old_col = gens[node], cols[node]
        if old_gen == gen and old_col == col:
            return
        if self._trace_state:
            self._tracer.record(
                "state", self.sim.now, node=node, gen=gen, col=col,
                old_gen=old_gen, old_col=old_col,
            )
        matrix = self._matrix
        matrix[old_gen][old_col] -= 1
        matrix[gen][col] += 1
        if col != old_col:
            counts = self._color_counts
            counts[old_col] -= 1
            new = counts[col] + 1
            counts[col] = new
            eps = self._eps_target
            if eps is not None and self._eps_time is None and col == self.plurality and new >= eps:
                self._eps_time = self.sim.now
                if self._eps_stop:
                    self.sim.stop()
            if new == self.n:
                self.sim.stop()
        gens[node] = gen
        cols[node] = col
        if not self._birth_seen[gen]:
            self._birth_seen[gen] = True
            self._record_birth(gen, self.sim.now, matrix[gen])
            if self._tracer.enabled_for("phase"):
                self._tracer.record(
                    "phase", self.sim.now, event="generation", gen=gen,
                    good_ticks=self.good_ticks,
                )

    def _record_birth(self, gen: int, time: float, row: list[int]) -> None:
        """Record generation ``gen``'s birth from its count-matrix ``row``.

        Shared with the compiled core, which calls it at each birth.
        """
        row = np.asarray(row, dtype=np.int64)
        self.births.append(
            GenerationBirth(
                generation=gen,
                time=time,
                fraction=float(row.sum()) / self.n,
                bias=multiplicative_bias(row),
                collision_probability=collision_probability(row),
            )
        )

    # ------------------------------------------------------------------
    # compiled core
    # ------------------------------------------------------------------
    def _core_seam(self):
        """How the compiled core can run this run, or ``False`` if it cannot.

        :func:`~repro.scenarios.faults.core_seam`'s ``(wiring, kinds)``
        for the simulator, given ``K_n``, window > 1, no leader tracer,
        and none of the handlers the core replaces overridden, the
        leaders' included.
        """
        cls = type(self)
        if not (
            self._window > 1
            and type(self.graph) is CompleteGraph
            and all(getattr(cls, name) is getattr(MultiLeaderConsensusSim, name) for name in _CORE_HANDLERS)
            and not hasattr(cls, "_unlock")
            and all(
                type(state) is ClusterLeaderState and state.tracer is None
                for state in self.leaders.values()
            )
        ):
            return False
        return core_seam(self)

    def _run_core(self, until: float) -> bool:
        """``sim.run(until=until)`` in the compiled core; ``False`` if it did not run."""
        seam = self._core_seam()
        if seam is False:
            return False
        core = fastcore.load()
        if core is None or not core.run_multileader(self, until, _CORE_FUNCS, *seam):
            return False
        self.core = "c"
        return True

    def publish_metrics(self, metrics) -> None:
        """Harvest tick + engine counters into a registry (epilogue)."""
        publish_phase_metrics(self, metrics)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def stats(self) -> StepStats:
        matrix = self.matrix
        per_generation = matrix.sum(axis=1)
        occupied = np.nonzero(per_generation)[0]
        top = int(occupied[-1]) if occupied.size else 0
        return StepStats(
            time=self.sim.now,
            top_generation=top,
            top_generation_fraction=float(per_generation[top]) / self.n,
            plurality_fraction=float(max(self._color_counts)) / self.n,
            bias=multiplicative_bias(self.color_counts),
        )

    def leader_phase_table(self) -> dict[int, dict[int, dict[int, float]]]:
        """generation -> state -> {leader: first entry time} (Figure 2 data)."""
        table: dict[int, dict[int, dict[int, float]]] = {}
        for leader, state in self.leaders.items():
            for transition in state.transitions:
                per_state = table.setdefault(transition.generation, {}).setdefault(
                    transition.state, {}
                )
                # Transitions are chronological, so the first entry wins.
                per_state.setdefault(leader, transition.time)
        return table

    # ------------------------------------------------------------------
    # runner
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_time: float = 3000.0,
        epsilon: float | None = None,
        stop_at_epsilon: bool = False,
        record_every: float | None = None,
    ) -> RunResult:
        """Run until full consensus, the ε-target, or ``max_time``."""
        self.core = "python"
        if record_every is not None:

            def sample() -> None:
                self.trajectory.append(self.stats())
                self.sim.schedule_in(record_every, sample)

            self.sim.schedule_in(record_every, sample)
        epsilon_target = None
        if epsilon is not None:
            epsilon_target = int(np.ceil((1.0 - epsilon) * self.n))
        n = self.n
        counts = self._color_counts
        plurality = self.plurality
        self._eps_target = epsilon_target
        self._eps_stop = stop_at_epsilon
        self._eps_time = None

        already_converged = max(counts) == n
        eps_pre_satisfied = (
            epsilon_target is not None and counts[plurality] >= epsilon_target
        )
        if already_converged or eps_pre_satisfied:
            # Degenerate starts cannot trigger the _set_state hooks.
            def done() -> bool:
                if (
                    epsilon_target is not None
                    and self._eps_time is None
                    and counts[plurality] >= epsilon_target
                ):
                    self._eps_time = self.sim.now
                    if stop_at_epsilon:
                        return True
                return max(counts) == n

            self.sim.run(until=max_time, stop_when=done)
        elif record_every is not None or not self._run_core(max_time):
            self.sim.run(until=max_time)
        epsilon_time = self._eps_time
        converged = max(counts) == n
        max_leader_gen = max(state.gen for state in self.leaders.values())
        if self._tracer.enabled_for("end"):
            self._tracer.record(
                "end", self.sim.now, converged=converged,
                counts=[int(c) for c in counts], eps_time=epsilon_time,
                good_ticks=self.good_ticks, leader_gen=max_leader_gen,
            )
        return RunResult(
            converged=converged,
            winner=int(np.argmax(counts)),
            plurality_color=self.plurality,
            elapsed=self.sim.now,
            final_color_counts=self.color_counts,
            epsilon_convergence_time=epsilon_time,
            trajectory=self.trajectory,
            births=self.births,
            info={
                "events": float(self.sim.events_executed),
                "good_ticks": float(self.good_ticks),
                "total_ticks": float(self.total_ticks),
                "active_leaders": float(len(self.leaders)),
                "max_leader_generation": float(max_leader_gen),
                "active_member_fraction": float(self._active_member.mean()),
                "time_unit": self.params.time_unit,
            },
        )


#: Handlers whose work the compiled core does itself.
_CORE_HANDLERS = (
    "_tick", "_exchange", "_deliver_signal", "_signal", "_set_state", "_refill_window",
    "_record_birth",
)
#: The handlers the core recognises in (and writes back to) the event
#: queue, in the core's event-kind order.
_CORE_FUNCS = (
    MultiLeaderConsensusSim._tick,
    MultiLeaderConsensusSim._exchange,
    MultiLeaderConsensusSim._deliver_signal,
)


def run_multileader_consensus(
    params: MultiLeaderParams,
    clustering: Clustering,
    counts: np.ndarray,
    rng: np.random.Generator,
    *,
    max_time: float = 3000.0,
    epsilon: float | None = None,
    stop_at_epsilon: bool = False,
    record_every: float | None = None,
    graph=None,
    tracer=None,
) -> RunResult:
    """Build a :class:`MultiLeaderConsensusSim` and run it."""
    sim = MultiLeaderConsensusSim(
        params, clustering, counts, rng, graph=graph, tracer=tracer
    )
    return sim.run(
        max_time=max_time,
        epsilon=epsilon,
        stop_at_epsilon=stop_at_epsilon,
        record_every=record_every,
    )
