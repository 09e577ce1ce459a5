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
:mod:`repro.core.single_leader` for the rationale; the scaffold it shares
with the other asynchronous simulators (constructor guard, count state,
run prologue, compiled-core hand-off) is
:class:`~repro.core.async_protocol.AsyncProtocolSim`.  An eligible run
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

from repro.core.async_protocol import AsyncProtocolSim, handlers_unchanged, snapshot_view
from repro.core.results import GenerationBirth, RunResult
from repro.engine.network import CompleteGraph
from repro.engine.rng import ChannelDelayPool, ExponentialPool
from repro.engine.simulator import tick_times
from repro.errors import ConfigurationError
from repro.multileader.cluster_leader import (
    STATE_PROPAGATION,
    STATE_TWO_CHOICES,
    ClusterLeaderState,
)
from repro.multileader.clustering import Clustering, publish_phase_metrics
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import core_seam
from repro.workloads.bias import collision_probability, multiplicative_bias
from repro.workloads.opinions import counts_to_assignment

__all__ = ["MultiLeaderConsensusSim", "run_multileader_consensus"]


class MultiLeaderConsensusSim(AsyncProtocolSim):
    """Event-driven simulator of Algorithms 4+5 on a given clustering."""

    _core_entry = "run_multileader"

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
        super().__init__(params, rng, graph=graph, simulator=simulator, tracer=tracer)
        counts = self._check_counts(counts)
        if clustering.n != params.n:
            raise ConfigurationError("clustering size does not match params.n")
        self._leader_of: list[int] = clustering.leader_of.tolist()

        self._tick_wait = ExponentialPool(rng, params.clock_rate)
        self._latency = ExponentialPool(rng, params.latency_rate)
        self._neighbors = self.graph.neighbor_pool(rng)
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

        self._init_counts(counts, counts_to_assignment(counts, rng).tolist())
        self._finished: list[bool] = [False] * self.n
        self._tmp_gen: list[int] = [0] * self.n
        self._tmp_state: list[int] = [0] * self.n
        self._birth_seen: list[bool] = [False] * (params.max_generation + 2)
        self._birth_seen[0] = True
        self._schedule_first_ticks(node for node in range(self.n) if active_member[node])

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

    finished = snapshot_view("_finished", bool, "Per-node finished flags (snapshot array).")
    tmp_gen = snapshot_view(
        "_tmp_gen", np.int64, "Stored own-leader generation per node (snapshot array)."
    )
    tmp_state = snapshot_view(
        "_tmp_state", np.int64, "Stored own-leader state per node (snapshot array)."
    )

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
        if not (
            self._window > 1
            and type(self.graph) is CompleteGraph
            and handlers_unchanged(self, MultiLeaderConsensusSim, _CORE_HANDLERS)
            and not hasattr(type(self), "_unlock")
            and all(
                type(state) is ClusterLeaderState and state.tracer is None
                for state in self.leaders.values()
            )
        ):
            return False
        return core_seam(self)

    def publish_metrics(self, metrics) -> None:
        """Harvest tick + engine counters into a registry (epilogue)."""
        publish_phase_metrics(self, metrics)

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
        self._run_to_stop(max_time, epsilon, stop_at_epsilon, record_every)
        max_leader_gen = max(state.gen for state in self.leaders.values())
        return self._result(
            {
                "active_leaders": float(len(self.leaders)),
                "max_leader_generation": float(max_leader_gen),
                "active_member_fraction": float(self._active_member.mean()),
            },
            good_ticks=self.good_ticks,
            leader_gen=max_leader_gen,
        )

#: Handlers whose work the compiled core does itself.
_CORE_HANDLERS = (
    "_tick", "_exchange", "_deliver_signal", "_signal", "_set_state", "_refill_window",
    "_record_birth",
)
MultiLeaderConsensusSim._core_funcs = (
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
