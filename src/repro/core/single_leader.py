"""Algorithms 2+3 — the asynchronous single-leader protocol, event-driven.

Faithful to Section 3's model:

* every node has a rate-1 Poisson clock; **every** tick sends a 0-signal
  to the leader (even while locked — Algorithm 2, lines 1–2);
* a *good* tick (node not locked) locks the node, samples two uniform
  contacts, opens channels to them concurrently, then a channel to the
  leader; each establishment takes an independent ``Exp(λ)`` time
  (footnote 3's plan, ``T2' = max(T2, T2) + T2``);
* once all channels are up, message exchange is instantaneous: the node
  reads the two contacts' ``(gen, col)`` and the leader's ``(gen, prop)``
  and applies Algorithm 2's update **only if** the leader state equals
  the state stored from the previous communication (lines 5/13–14), the
  mechanism that keeps two-choices and propagation stages from
  interleaving;
* a node whose generation increased notifies the leader with a
  gen-signal (one-way latency, no locking).

Engine notes (the hot path):

* all randomness comes from block-prefetched draw pools
  (:mod:`repro.engine.rng`) over the caller's generator — one vectorized
  numpy call per few thousand events instead of one per event;
* line-1 0-signals are not events: they are arrival times on the
  simulator's tally stream, which counts them and fires
  :meth:`SingleLeaderSim._propagation_trigger` at the generation's
  ``C3·n``-th one, the only 0-signal Algorithm 3 acts on (see
  :meth:`~repro.engine.simulator.Simulator.tally_at`);
* scheduling is *batch-granular*, via skip-tick chains: each node
  pre-draws :attr:`~repro.engine.simulator.Simulator.tick_window` future tick
  times per refill and files the whole 0-signal fan-out with one
  :meth:`~repro.engine.simulator.Simulator.tally_at` call; tick
  *events* exist only while the node is unlocked (a locked tick is a
  no-op by lines 3-4, so it is counted at unlock — exactly as many as
  a tick-per-event schedule would dispatch — never dispatched).  With window 1
  (block-1 pools) everything degenerates to the event-granular
  draw/push sequence of the scalar-draw reference engine, draw for
  draw;
* payloads are node ids (ticks), generations (gen-signals) or
  ``(node, first, second)`` triples (exchanges) — no per-event
  closures;
* per-node state lives in plain Python lists (``gens``, ``cols``,
  ``matrix`` and friends are numpy *snapshot* properties built on
  access), so handler bodies are pure scalar Python with no numpy
  round-trips;
* convergence is detected where counts change (:meth:`_set_state`);
  only a run that starts decided (all one color, or the ε-target
  already met) polls its predicate after every event, a Python ``max``
  over the ``k``-entry color-count list, not a numpy reduction;
* an eligible run (the paper's default path: K_n, exponential
  latencies, no tracer, faults or sampler) runs its event loop in the
  compiled core (:mod:`repro.core.fastcore`), which repeats these
  handlers draw for draw and writes the state back; this module stays
  its oracle and fallback.

The constructor guard, the snapshot views, ``stats()``, the run's
prologue and the compiled-core hand-off come from
:class:`~repro.core.async_protocol.AsyncProtocolSim`.

The seed scalar-draw implementation is preserved in
:mod:`repro.core.reference` as the distributional oracle for
``tests/engine/test_fast_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.async_protocol import AsyncProtocolSim, handlers_unchanged, snapshot_view
from repro.core.leader import Leader, LeaderPhaseChange
from repro.core.params import SingleLeaderParams
from repro.core.results import GenerationBirth, RunResult
from repro.engine.latency import ChannelPlan, LatencyModel
from repro.engine.network import CompleteGraph
from repro.engine.rng import ChannelDelayPool, ExponentialPool, LatencyPool
from repro.engine.simulator import Simulator
from repro.engine.tracing import Tracer
from repro.workloads.bias import collision_probability, multiplicative_bias
from repro.workloads.opinions import counts_to_assignment, validate_assignment

__all__ = ["SingleLeaderSim", "run_single_leader"]


class SingleLeaderSim(AsyncProtocolSim):
    """Event-driven simulator of the single-leader protocol.

    Parameters
    ----------
    params:
        Protocol constants (see :class:`~repro.core.params.SingleLeaderParams`).
    counts:
        Initial color counts; ``counts.sum()`` must equal ``params.n``.
    rng:
        One generator drives ticks, latencies, and sampling (through
        block-prefetched pools); runs are reproducible because event
        ordering and pool refill order are deterministic.
    tracer:
        Optional structured-trace sink.
    latency_model:
        Override the channel-establishment distribution (Section 5 asks
        whether results carry over beyond exponential delays). When
        given, it replaces the ``Exp(params.latency_rate)`` draws; note
        that ``params.time_unit`` then no longer applies — use
        :func:`repro.engine.latency.empirical_time_unit` for reporting.
    graph:
        Communication substrate; any object with the
        :class:`~repro.engine.network.CompleteGraph` sampling contract
        (see :mod:`repro.scenarios.topology`). Defaults to ``K_n`` —
        the paper's model — with a draw sequence bit-identical to the
        pre-scenario engine.
    """

    #: Protocol label stamped on trace ``run`` headers (subclass hook).
    _trace_protocol = "single_leader"
    _core_entry = "run"

    def __init__(
        self,
        params: SingleLeaderParams,
        counts: np.ndarray,
        rng: np.random.Generator,
        *,
        tracer: Tracer | None = None,
        latency_model: "LatencyModel | None" = None,
        graph=None,
        simulator: Simulator | None = None,
        assignment=None,
    ):
        super().__init__(params, rng, graph=graph, simulator=simulator, tracer=tracer)
        counts = self._check_counts(counts)
        self._latency_model = latency_model
        # The compiled core runs only a simulator built here without a
        # tracer: no fault transforms, no trace records.
        self._plain_sim = simulator is None and tracer is None
        self.leader = Leader(params)
        self._phase_changes_seen = 0
        # The leader's 0-signal counters follow the tally stream:
        # zero_signals counts from _tally_origin, tick_count from
        # _tally_base (the count at the last generation birth).
        self._tally_origin = self._tally_base = self.sim.tallied
        self._arm_propagation()
        # Protocol-level trace hooks (state transitions and leader phase
        # changes, never raw dispatches — the skip-tick chains would
        # make a dispatch trace under-report).  The flags
        # are cached so the untraced hot path pays one bool test.
        self._trace_state = self._tracer.enabled_for("state")
        self._trace_phase = self._tracer.enabled_for("phase")
        if self._tracer.enabled_for("run"):
            self._tracer.record(
                "run",
                self.sim.now,
                protocol=self._trace_protocol,
                n=self.n,
                k=self.k,
                counts=[int(c) for c in counts],
            )

        # Draw pools over the shared generator (refills interleave at
        # block granularity; deterministic for a given seed).  The
        # cycle's channel-establishment delay — max over the concurrent
        # contacts plus the leader channel (or a straight sum under the
        # sequential plan) — is one composite pooled draw.
        concurrent = params.plan is ChannelPlan.CONCURRENT_THEN_LEADER
        stages = (2, 1) if concurrent else (1, 1, 1)
        self._tick_wait = ExponentialPool(rng, params.clock_rate)
        if latency_model is not None:
            self._latency = LatencyPool(latency_model, rng)
            self._channel_delay = ChannelDelayPool(rng, stages=stages, model=latency_model)
        else:
            self._latency = ExponentialPool(rng, params.latency_rate)
            self._channel_delay = ChannelDelayPool(rng, params.latency_rate, stages=stages)
        # Bound sampler from the graph's pooled degree-class sampler; on
        # K_n this is the same IntegerPool + shift-trick sequence as the
        # original inline implementation (regression-guarded).  A
        # weighted substrate (per-edge latency multipliers, see
        # :mod:`repro.scenarios.topology`) switches contact sampling to
        # the scaled variant: the cycle's channel-establishment delay is
        # multiplied by the slowest contact edge's weight.
        pool = self.graph.neighbor_pool(rng)
        self._neighbors = pool
        self._sample_neighbor = pool.sample
        self._weighted = bool(getattr(self.graph, "is_weighted", False))
        self._sample_scaled = getattr(pool, "sample_scaled", None)
        self._cycle_scale = 1.0

        # Hot per-node state: plain Python lists (see module docstring).
        if assignment is None:
            cols = counts_to_assignment(counts, rng).tolist()
        else:
            # Topology-correlated adversarial placement (the node→color
            # map is the caller's, not a uniform shuffle).
            cols = validate_assignment(assignment, counts).tolist()
        self._init_counts(counts, cols)
        self._seen_gen: list[int] = [-1] * self.n
        self._seen_prop: list[int] = [-1] * self.n
        #: Ticks counted-at-unlock instead of dispatched (skip chains)
        #: and pool-block chain refills — runtime telemetry, harvested
        #: by :meth:`publish_metrics`.
        self.skipped_ticks = 0
        self.refills = 0

        # Tick scheduling.  Window 1 (block-1 pools): the reference
        # engine's event-granular pattern, one tick event per tick.
        # Window > 1: *skip-tick chains* — each node's
        # future tick times are pre-drawn per window and only the ticks
        # that can matter (the node is unlocked) become events; ticks
        # elapsing while the node is locked mid-cycle are no-ops by
        # Algorithm 2 and are counted exactly at unlock instead of
        # dispatched.  Their line-1 0-signals are tallied either way,
        # one latency-pool block per chain extension.
        self._window = self.sim.tick_window
        self._skip = self._window > 1
        schedule_in = self.sim.schedule_in
        tick = self._tick
        wait = self._tick_wait
        if self._skip:
            latency = self._latency
            schedule = self.sim.schedule
            tally_at = self.sim.tally_at
            now = self.sim.now
            self._chain: list[list[float]] = [[] for _ in range(self.n)]
            self._cptr: list[int] = [0] * self.n
            self._tick_pending: list[bool] = [True] * self.n
            for node in range(self.n):
                first_tick = now + wait()
                self._chain[node].append(first_tick)
                schedule(first_tick, tick, node)
                # Filed per node: a fault transform may draw from the
                # shared generator, so this keeps the draw order.
                tally_at((first_tick + latency(),))
        else:
            for node in range(self.n):
                schedule_in(wait(), tick, node)

    seen_gen = snapshot_view(
        "_seen_gen", np.int64, "Stored leader generation per node (snapshot array)."
    )
    seen_prop = snapshot_view(
        "_seen_prop", np.int8, "Stored leader propagation flag per node (snapshot array)."
    )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _send_signal(self, i: int) -> None:
        """Fire-and-forget i-signal to the leader (one-way latency)."""
        self.sim.schedule_in(self._latency(), self._leader_signal, i)

    def _arm_propagation(self) -> None:
        """Arm the tally trigger at this generation's ``C3·n``-th 0-signal."""
        self.sim.arm_tally_trigger(
            self._tally_base + self.params.prop_signal_threshold,
            self._propagation_trigger,
        )

    def _sync_leader(self) -> None:
        """Bring the leader's 0-signal counters up to the tally stream."""
        tallied = self.sim.tallied
        self.leader.zero_signals = tallied - self._tally_origin
        self.leader.tick_count = tallied - self._tally_base

    def _propagation_trigger(self) -> None:
        """The ``C3·n``-th 0-signal arrived: close two-choices (Algorithm 3)."""
        leader = self.leader
        if not leader.prop:
            leader.prop = True
            leader.phase_changes.append(
                LeaderPhaseChange(
                    kind="propagation", time=self.sim.now, generation=leader.gen
                )
            )
        self._note_phase_changes()

    def _leader_signal(self, i: int) -> None:
        """An i-signal (i >= 1) reaches the leader; 0-signals are tallied."""
        leader = self.leader
        gen = leader.gen
        leader.on_signal(i, self.sim.now)
        if leader.gen != gen:
            # A birth restarts the leader's 0-signal count.
            self._tally_base = self.sim.tallied
            self._arm_propagation()
        self._note_phase_changes()

    def _note_phase_changes(self) -> None:
        """Trace and snapshot leader transitions not yet seen."""
        leader = self.leader
        changes = leader.phase_changes
        if self._phase_changes_seen == len(changes):
            return
        self._sync_leader()
        while self._phase_changes_seen < len(changes):
            change = changes[self._phase_changes_seen]
            self._phase_changes_seen += 1
            if self._trace_phase:
                # Cumulative signal counters ride the (rare) phase
                # records, so "message counts by kind" needs no
                # per-signal record on the hot path.
                self._tracer.record(
                    "phase",
                    change.time,
                    event=change.kind,
                    gen=change.generation,
                    zero_signals=leader.zero_signals,
                    gen_signals=leader.gen_signals,
                    good_ticks=self.good_ticks,
                )
            if change.kind == "propagation":
                self._record_birth(change, self._matrix[change.generation])

    def _record_birth(self, change: LeaderPhaseChange, row: list[int]) -> None:
        """Lemma 22's snapshot: the newest generation at the end of its two-choices window."""
        row = np.asarray(row, dtype=np.int64)
        total = int(row.sum())
        self.births.append(
            GenerationBirth(
                generation=change.generation,
                time=change.time,
                fraction=total / self.n,
                bias=multiplicative_bias(row) if total else 1.0,
                collision_probability=collision_probability(row) if total else 0.0,
            )
        )

    def _core_phase_change(self, kind: str, time: float, generation: int, row) -> None:
        """A leader transition made inside the compiled core.

        The core owns the leader's counters for its run and writes them
        back at the end; this records the transition (and, when the
        two-choices window closed, the generation's ``row`` of the
        count matrix as its birth) exactly as :meth:`_note_phase_changes`
        would.  Core runs are untraced, so there is no phase record.
        """
        change = LeaderPhaseChange(kind=kind, time=time, generation=generation)
        self.leader.phase_changes.append(change)
        self._phase_changes_seen += 1
        if row is not None:
            self._record_birth(change, row)

    def _extend_chain(self, node: int) -> None:
        """Pre-draw the node's next tick window and its 0-signal fan-out.

        One pool-block take each for waits and latencies, one cumsum for
        the tick times, and one tally filing for the whole line-1 signal
        block (the leader counts every signal, whether or not the
        sending node's tick itself needs dispatching).  The tick times
        only extend the chain; tick *events* are created lazily for
        unlocked nodes (see :meth:`_tick` / :meth:`_unlock`).
        """
        window = self._window
        self.refills += 1
        waits = self._tick_wait.take(window)
        lats = self._latency.take(window)
        chain = self._chain[node]
        ptr = self._cptr[node]
        if ptr > 64:
            # Prune the consumed prefix, always keeping the newest entry
            # (consumed or not) as the extension base time.
            drop = min(ptr, len(chain) - 1)
            del chain[:drop]
            self._cptr[node] = ptr - drop
        # Plain-Python cumsum: at window sizes numpy's per-call overhead
        # costs more than the loop (measured; see docs/architecture.md).
        t = chain[-1]
        now = self.sim.now
        arrivals = []
        for j in range(window):
            t += waits[j]
            chain.append(t)
            arrival = t + lats[j]
            # An extension behind the clock (a cycle outlived the
            # pre-drawn window) delivers overdue signals immediately
            # rather than in the past.
            arrivals.append(arrival if arrival > now else now)
        self.sim.tally_at(arrivals)

    def _schedule_next_tick(self, node: int) -> None:
        """Arrange the next tick *event* (the next chain time ahead of now)."""
        if not self._tick_pending[node]:
            self._tick_pending[node] = True
            self.sim.schedule(self._chain[node][self._cptr[node]], self._tick, node)

    def _unlock(self, node: int) -> None:
        """End the node's cycle: count ticks it slept through, tick again.

        In skip mode the chain entries that elapsed while the node was
        locked were no-ops by Algorithm 2 (lines 3-4 only run unlocked),
        so they are *counted* here — exactly as many as the event engine
        would have dispatched — and only the next upcoming chain time
        becomes a real event.
        """
        self._locked[node] = False
        if not self._skip:
            return
        chain = self._chain[node]
        ptr = self._cptr[node]
        now = self.sim.now
        skipped = 0
        while True:
            # Extend before reading: a run that ended while the node was
            # locked counted its chain to the end (see run()).
            if ptr >= len(chain):
                self._cptr[node] = ptr
                self._extend_chain(node)
                chain = self._chain[node]
                ptr = self._cptr[node]
            if chain[ptr] > now:
                break
            ptr += 1
            skipped += 1
        self._cptr[node] = ptr
        self.total_ticks += skipped
        self.skipped_ticks += skipped
        self._schedule_next_tick(node)

    def _begin_cycle(self, node: int, first: int, second: int) -> None:
        """Open the cycle's channels (hook for the delayed-exchange variant)."""
        delay = self._channel_delay()
        if self._cycle_scale != 1.0:
            delay *= self._cycle_scale
        self.sim.schedule_in(delay, self._exchange, (node, first, second))

    def _tick(self, node: int) -> None:
        self.total_ticks += 1
        if self._skip:
            ptr = self._cptr[node] + 1
            self._cptr[node] = ptr
            if ptr >= len(self._chain[node]):
                self._extend_chain(node)
            self._tick_pending[node] = False
            if self._locked[node]:
                # Only reachable through fault deferral (a crashed
                # node's tick resumed mid-cycle); the unlock path will
                # resume the chain.
                return
        else:
            # Event-granular fallback: the legacy draw/push sequence.
            sim = self.sim
            sim.schedule_in(self._tick_wait(), self._tick, node)
            sim.tally_in(self._latency())  # line 1
            if self._locked[node]:
                return
        self._locked[node] = True
        self.good_ticks += 1
        if self._weighted:
            first, weight_a = self._sample_scaled(node)
            second, weight_b = self._sample_scaled(node)
            # Contacts are opened concurrently: the slowest edge
            # dominates the establishment stage.
            self._cycle_scale = weight_a if weight_a >= weight_b else weight_b
        else:
            first = self._sample_neighbor(node)
            second = self._sample_neighbor(node)
        self._begin_cycle(node, first, second)

    def _exchange(self, payload: tuple[int, int, int]) -> None:
        node, first, second = payload
        leader = self.leader
        leader_gen = leader.gen
        leader_prop = leader.prop
        if self._seen_gen[node] == leader_gen and self._seen_prop[node] == leader_prop:
            gens = self._gens
            cols = self._cols
            gen_a, col_a = gens[first], cols[first]
            gen_b, col_b = gens[second], cols[second]
            old_gen = gens[node]
            if (
                not leader_prop
                and gen_a == leader_gen - 1
                and gen_b == leader_gen - 1
                and col_a == col_b
            ):
                self._set_state(node, leader_gen, col_a)
                if leader_gen > old_gen:
                    self._send_signal(leader_gen)
            else:
                candidate_gen, candidate_col = -1, -1
                for gen_s, col_s in ((gen_a, col_a), (gen_b, col_b)):
                    if old_gen < gen_s and (gen_s < leader_gen or leader_prop):
                        if gen_s > candidate_gen:
                            candidate_gen, candidate_col = gen_s, col_s
                if candidate_gen >= 0:
                    self._set_state(node, candidate_gen, candidate_col)
                    self._send_signal(candidate_gen)
        else:
            self._seen_gen[node] = leader_gen
            self._seen_prop[node] = int(leader_prop)
        self._unlock(node)

    def _set_state(self, node: int, gen: int, col: int) -> None:
        gens = self._gens
        cols = self._cols
        old_gen, old_col = gens[node], cols[node]
        if self._trace_state:
            self._tracer.record(
                "state", self.sim.now,
                node=node, gen=gen, col=col, old_gen=old_gen, old_col=old_col,
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

    def _core_seam(self):
        """No fault seam (``(None, ())``) when the compiled core models this run, else ``False``.

        The paper's default path only: skip-tick chains (window > 1),
        ``K_n``, exponential latencies, a simulator of our own with no
        tracer and no fault seams (:func:`repro.scenarios.faults.inject_faults`
        wraps a built simulator's methods), and none of the handlers
        the core replaces overridden (a subclass that only wraps
        ``__init__`` or ``run`` stays eligible).
        """
        eligible = (
            self._skip
            and self._plain_sim
            and vars(self.sim).keys().isdisjoint(_SIMULATOR_METHODS)
            and self._latency_model is None
            and type(self.graph) is CompleteGraph
            and handlers_unchanged(self, SingleLeaderSim, _CORE_HANDLERS)
        )
        return (None, ()) if eligible else False

    def _trace_end_fields(self) -> dict:
        """Extra fields for the trace ``end`` record (subclass hook)."""
        return {}

    def publish_metrics(self, metrics) -> None:
        """Harvest protocol + engine counters into a registry (epilogue).

        Every number here is maintained by the run regardless of
        metrics (plain ints on amortized paths), so enabling metrics
        adds no per-event work — just this one harvest.
        """
        if metrics is None or not metrics.enabled:
            return
        self._sync_leader()
        metrics.counter(f"protocol.runs.{self._trace_protocol}").inc()
        metrics.add_counters(
            {
                "protocol.ticks_total": self.total_ticks,
                "protocol.ticks_good": self.good_ticks,
                "protocol.ticks_suppressed": self.skipped_ticks,
                "protocol.pool_refills": self.refills,
                "protocol.leader_zero_signals": self.leader.zero_signals,
                "protocol.leader_gen_signals": self.leader.gen_signals,
            }
        )
        metrics.gauge("protocol.leader_generation").set(self.leader.gen)
        metrics.counter(f"engine.core.{self.core}").inc()
        self.sim.publish_metrics(metrics)

    # ------------------------------------------------------------------
    # runner
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_time: float = 2000.0,
        epsilon: float | None = None,
        stop_at_epsilon: bool = False,
        record_every: float | None = None,
    ) -> RunResult:
        """Run until full consensus, ``max_time``, or the ε-target.

        Parameters
        ----------
        max_time:
            Simulated-time budget.
        epsilon:
            If set, the first time the initially dominant color covers a
            ``1 − ε`` fraction is recorded (Theorem 13's ε-convergence).
        stop_at_epsilon:
            Stop as soon as the ε-target is hit instead of continuing to
            full consensus.
        record_every:
            If set, append a :class:`StepStats` snapshot this often.
        """
        self._run_to_stop(max_time, epsilon, stop_at_epsilon, record_every)
        if self._skip:
            # Ticks that elapsed while a node sat locked at the end of
            # the run were never dispatched; count them so total_ticks
            # matches the event-granular engine exactly.
            end = self.sim.now
            chains = self._chain
            cptrs = self._cptr
            extra = 0
            for node in range(self.n):
                if self._locked[node]:
                    chain = chains[node]
                    ptr = cptrs[node]
                    while ptr < len(chain) and chain[ptr] <= end:
                        ptr += 1
                        extra += 1
                    cptrs[node] = ptr
            self.total_ticks += extra
            self.skipped_ticks += extra
        self._sync_leader()
        leader = self.leader
        # The end record carries only engine-independent (protocol-level)
        # counters; the dispatch-lagging stats like total_ticks stay in
        # RunResult.info instead.
        return self._result(
            {
                "leader_zero_signals": float(leader.zero_signals),
                "leader_gen_signals": float(leader.gen_signals),
                "final_leader_generation": float(leader.gen),
            },
            zero_signals=leader.zero_signals,
            gen_signals=leader.gen_signals,
            good_ticks=self.good_ticks,
            leader_gen=leader.gen,
            **self._trace_end_fields(),
        )


#: Handlers whose work the compiled core does itself.
_CORE_HANDLERS = (
    "_tick", "_exchange", "_unlock", "_extend_chain", "_set_state", "_leader_signal",
    "_propagation_trigger", "_begin_cycle", "_send_signal", "_schedule_next_tick",
    "_arm_propagation", "_note_phase_changes", "_sync_leader",
)
#: Simulator methods a fault seam may shadow on the instance.
_SIMULATOR_METHODS = frozenset(name for name, value in vars(Simulator).items() if callable(value))
#: The queue handlers, then the tally trigger.
SingleLeaderSim._core_funcs = (
    SingleLeaderSim._tick,
    SingleLeaderSim._exchange,
    SingleLeaderSim._leader_signal,
    SingleLeaderSim._propagation_trigger,
)


def run_single_leader(
    params: SingleLeaderParams,
    counts: np.ndarray,
    rng: np.random.Generator,
    *,
    max_time: float = 2000.0,
    epsilon: float | None = None,
    stop_at_epsilon: bool = False,
    record_every: float | None = None,
    graph=None,
    tracer: Tracer | None = None,
    metrics=None,
) -> RunResult:
    """Build a :class:`SingleLeaderSim` and run it (convenience front-end)."""
    sim = SingleLeaderSim(params, counts, rng, graph=graph, tracer=tracer)
    result = sim.run(
        max_time=max_time,
        epsilon=epsilon,
        stop_at_epsilon=stop_at_epsilon,
        record_every=record_every,
    )
    sim.publish_metrics(metrics)
    return result
