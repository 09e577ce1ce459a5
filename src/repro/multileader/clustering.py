"""Section 4.1 — the distributed clustering algorithm.

Every node flips a coin and becomes a cluster *leader* with probability
``leader_probability`` (the paper's ``1/log^c n``). Followers join
clusters by sampling: at each tick an unclustered follower contacts
three random nodes, asks them for their leaders' addresses, then
contacts one of those leaders and joins if the cluster is below its size
cap. Members send 0-signals to their leader at every tick, which lets
leaders count time; a leader whose cluster reached the target size
counts a further fixed number of signals and then declares itself
*ready*. The first ready leader starts the switch broadcast; every
leader that learns of the switch enters consensus mode if its cluster is
large enough (``min_active_size``), otherwise the cluster sits out the
consensus phase (the paper's "faulty clusters"). Theorem 27 measures
exactly these quantities: the clustered fraction over time and the
spread ``t_l − t_f`` between the first and last switch.

Two admission policies are provided. The default accepts members until
the cap (the measured claims — growth, switch spread, exclusion of
small clusters — do not depend on admission pacing). With
``faithful_pause=True`` the simulator follows the paper's device to the
letter: a leader that reaches the target size *pauses* admissions,
counts ``pause_units`` worth of member 0-signals, then *reopens* until
the cap; the ready counter starts only after the reopen window.

The event hot path (ticks, latencies, contact sampling) draws from
block-prefetched pools and dispatches bound methods with integer/tuple
payloads — see the engine notes in :mod:`repro.core.single_leader`.  An
eligible run (``K_n``, no tracer, no churn, default admission, none of
the core's handlers overridden) runs its event loop in the compiled
core (:mod:`repro.core.fastcore`), which repeats these handlers — and
the drop and straggler transforms of a
:class:`~repro.scenarios.faults.FaultInjection` wrapping the simulator —
draw for draw and writes the state back; this module stays its oracle
and fallback.  The constructor guard, the tick windows and the
compiled-core hand-off come from
:class:`~repro.core.async_protocol.AsyncProtocolSim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.async_protocol import (
    AsyncProtocolSim,
    check_run_inputs,
    handlers_unchanged,
    snapshot_view,
)
from repro.engine.network import CompleteGraph
from repro.engine.rng import ChannelDelayPool, ExponentialPool
from repro.errors import ConfigurationError, SimulationError
from repro.multileader.params import MultiLeaderParams
from repro.scenarios.faults import core_seam
from repro.util.validation import check_positive, check_positive_int

__all__ = ["Clustering", "ClusteringSim", "ideal_clustering", "run_clustering"]


@dataclass
class Clustering:
    """Outcome of the clustering phase.

    Attributes
    ----------
    leader_of:
        ``leader_of[v]`` is the leader's node id, or ``-1`` if ``v`` is
        unclustered. Leaders point at themselves.
    active_leaders:
        Leaders whose clusters met ``min_active_size`` and switched to
        consensus mode.
    switch_times:
        Leader id -> simulated time it entered consensus mode.
    elapsed:
        Simulated time when the clustering run stopped.
    """

    leader_of: np.ndarray
    active_leaders: list[int]
    switch_times: dict[int, float] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def n(self) -> int:
        return int(self.leader_of.size)

    @property
    def leaders(self) -> list[int]:
        """All cluster leaders (active or not), ascending."""
        return np.flatnonzero(self.leader_of == np.arange(self.n)).tolist()

    def cluster_sizes(self) -> dict[int, int]:
        """Leader id -> cluster cardinality (leader included), by ascending id."""
        clustered = self.leader_of[self.leader_of >= 0]
        counts = np.bincount(clustered, minlength=self.n)
        return {leader: int(counts[leader]) for leader in self.leaders}

    @property
    def clustered_fraction(self) -> float:
        return float(np.count_nonzero(self.leader_of >= 0)) / self.n

    @property
    def active_fraction(self) -> float:
        """Fraction of all nodes living in an active (consensus) cluster."""
        members = int(np.count_nonzero(np.isin(self.leader_of, self.active_leaders)))
        return members / self.n

    @property
    def switch_spread(self) -> float:
        """Theorem 27's ``t_l − t_f`` over active leaders."""
        if not self.switch_times:
            return 0.0
        times = [self.switch_times[leader] for leader in self.active_leaders]
        return max(times) - min(times) if times else 0.0


def ideal_clustering(n: int, cluster_size: int) -> Clustering:
    """A deterministic, perfectly balanced clustering (test/experiment aid).

    Nodes ``0, cluster_size, 2·cluster_size, ...`` lead consecutive
    blocks. Use when an experiment studies the consensus phase and
    clustering quality is not the subject.
    """
    n = check_positive_int("n", n, minimum=2)
    cluster_size = check_positive_int("cluster_size", cluster_size, minimum=2)
    if cluster_size > n:
        raise ConfigurationError("cluster_size cannot exceed n")
    leader_of = np.empty(n, dtype=np.int64)
    leaders = []
    for start in range(0, n, cluster_size):
        leader_of[start : start + cluster_size] = start
        leaders.append(start)
    # Fold a trailing runt cluster into the previous one.
    if n % cluster_size and len(leaders) > 1 and n - leaders[-1] < cluster_size:
        leader_of[leaders[-1] :] = leaders[-2]
        leaders.pop()
    return Clustering(
        leader_of=leader_of,
        active_leaders=leaders,
        switch_times={leader: 0.0 for leader in leaders},
        elapsed=0.0,
    )


class ClusteringSim(AsyncProtocolSim):
    """Event-driven simulator of the clustering phase.

    Parameters
    ----------
    params:
        Multi-leader configuration (latency, cluster sizes, ...).
    rng:
        Drives coin flips, ticks, sampling, and latencies.
    ready_units:
        Time units a full cluster's leader keeps counting 0-signals
        before declaring itself ready to switch.
    faithful_pause:
        Enable the paper's pause/reopen admission pacing (Section 4.1):
        pause at the target size for ``pause_units`` time units of
        member signals, then reopen until the cap.
    pause_units:
        Length of the pause window (only with ``faithful_pause``).
    graph:
        Communication substrate (defaults to ``K_n``, bit-identical to
        the pre-scenario engine; see :mod:`repro.scenarios.topology`).
    """

    _core_entry = "run_clustering"

    def __init__(
        self,
        params: MultiLeaderParams,
        rng: np.random.Generator,
        *,
        ready_units: float = 2.0,
        faithful_pause: bool = False,
        pause_units: float = 1.0,
        graph=None,
        simulator=None,
        tracer=None,
    ):
        super().__init__(params, rng, graph=graph, simulator=simulator, tracer=tracer)
        self._trace_phase = self._tracer.enabled_for("phase")
        if self._tracer.enabled_for("run"):
            self._tracer.record(
                "run", self.sim.now, protocol="multileader_clustering",
                n=self.n, k=0, counts=[],
            )
        self._tick_wait = ExponentialPool(rng, params.clock_rate)
        self._latency = ExponentialPool(rng, params.latency_rate)
        self._neighbors = self.graph.neighbor_pool(rng)
        self._sample_other = self._neighbors.sample
        # Three concurrent channels to the sampled nodes per cycle.
        self._channel_delay = ChannelDelayPool(rng, params.latency_rate, stages=(3,))
        self._leader: list[int] = [-1] * self.n
        coin = rng.random(self.n) < params.leader_probability
        self.is_leader = coin
        if not coin.any():
            # Guarantee at least one leader (the paper's whp. statement).
            self.is_leader[int(rng.integers(self.n))] = True
        leaders = np.nonzero(self.is_leader)[0]
        for leader in leaders:
            self._leader[int(leader)] = int(leader)
        self.size: dict[int, int] = {int(v): 1 for v in leaders}
        self.signal_count: dict[int, int] = {int(v): 0 for v in leaders}
        self.ready: dict[int, bool] = {int(v): False for v in leaders}
        self.informed: dict[int, bool] = {int(v): False for v in leaders}
        self._informed_count = 0
        self._total_leaders = len(self.informed)
        self.switch_times: dict[int, float] = {}
        self.active_leaders: list[int] = []
        self._locked: list[bool] = [False] * self.n
        self._ready_signals = math.ceil(
            ready_units * params.time_unit * params.target_cluster_size
        )
        self._faithful_pause = faithful_pause
        self._pause_signals = math.ceil(
            pause_units * params.time_unit * params.target_cluster_size
        )
        # Pause bookkeeping: signals counted while paused, per leader.
        self._pause_count: dict[int, int] = {}
        self._reopened: dict[int, bool] = {}
        self._broadcast_started = False
        self.first_ready_time: float | None = None
        self.clustered_trajectory: list[tuple[float, float]] = []
        self.total_ticks = 0
        self.good_ticks = 0
        self._schedule_first_ticks(range(self.n))

    leader_of = snapshot_view(
        "_leader", np.int64, "Per-node leader assignment, ``-1`` when unclustered (snapshot)."
    )

    def _tick(self, node: int) -> None:
        sim = self.sim
        self.total_ticks += 1
        credit = self._credit
        c = credit[node] - 1
        if c:
            credit[node] = c
        else:
            self._refill_window(node)
        own = self._leader[node]
        if own >= 0:
            # Member (or leader itself): 0-signal to the own leader.
            # Its target changes as clusters form, so it is drawn here
            # per tick instead of batched with the tick window.
            sim.schedule_in(self._latency(), self._leader_signal, own)
        if self._locked[node]:
            return
        self._locked[node] = True
        self.good_ticks += 1
        samples = (
            self._sample_other(node),
            self._sample_other(node),
            self._sample_other(node),
        )
        sim.schedule_in(self._channel_delay(), self._exchange, (node, samples))

    def _exchange(self, payload: tuple[int, tuple[int, ...]]) -> None:
        node, samples = payload
        # Relay the switch broadcast between every pair of leaders seen,
        # informing them in ascending order.
        leader = self._leader
        seen_leaders = {leader[s] for s in samples if leader[s] >= 0}
        own = leader[node]
        if own >= 0:
            seen_leaders.add(own)
        informed = self.informed
        if any(informed.get(l, False) for l in seen_leaders):
            for seen in sorted(seen_leaders):
                self._inform(seen)
        if own >= 0 or not seen_leaders:
            self._locked[node] = False
            return
        # Unclustered follower: try to join one sampled leader.
        target = min(seen_leaders)  # deterministic pick among candidates
        self.sim.schedule_in(self._latency(), self._join, (node, target))

    def _accepting(self, leader: int) -> bool:
        """Admission policy (default: open until cap; faithful: pause/reopen)."""
        size = self.size.get(leader, 0)
        if size >= self.params.max_cluster_size or leader in self.switch_times:
            return False
        if not self._faithful_pause:
            return True
        if size < self.params.target_cluster_size:
            return True
        # At/above target: closed while paused, open again after reopening.
        return self._reopened.get(leader, False)

    def _join(self, payload: tuple[int, int]) -> None:
        node, target = payload
        if self._accepting(target) and self._leader[node] < 0:
            self._leader[node] = target
            self.size[target] += 1
        self._locked[node] = False

    def _leader_signal(self, leader: int) -> None:
        if leader not in self.signal_count:
            return
        if self.size[leader] < self.params.target_cluster_size or self.ready[leader]:
            return
        if self._faithful_pause and not self._reopened.get(leader, False):
            # Paper's pause window: count c2-style signals, then reopen.
            self._pause_count[leader] = self._pause_count.get(leader, 0) + 1
            if self._pause_count[leader] >= self._pause_signals:
                self._reopened[leader] = True
            return
        self.signal_count[leader] += 1
        if self.signal_count[leader] >= self._ready_signals:
            self.ready[leader] = True
            if not self._broadcast_started:
                self._broadcast_started = True
                self.first_ready_time = self.sim.now
                self._inform(leader)

    def _inform(self, leader: int) -> None:
        if self.informed.get(leader, False):
            return
        self.informed[leader] = True
        self._informed_count += 1
        if self.size[leader] >= self.params.min_active_size:
            self.switch_times[leader] = self.sim.now
            self.active_leaders.append(leader)
            if self._trace_phase:
                self._tracer.record(
                    "phase", self.sim.now, event="switch", leader=leader,
                    size=self.size[leader],
                )
        # Termination is detected here (the only place `informed`
        # changes) instead of polling every event.
        if self._broadcast_started and self._informed_count == self._total_leaders:
            self.sim.stop()

    def _sample(self, every: float) -> None:
        """Record the clustered fraction, then poll again ``every`` later."""
        clustered = sum(1 for leader in self._leader if leader >= 0)
        self.clustered_trajectory.append((self.sim.now, clustered / self.n))
        self.sim.schedule_in(every, self._sample, every)

    def publish_metrics(self, metrics) -> None:
        """Harvest tick + engine counters into a registry (epilogue)."""
        publish_phase_metrics(self, metrics)

    # ------------------------------------------------------------------
    # compiled core
    # ------------------------------------------------------------------
    def _core_seam(self):
        """How the compiled core can run this run, or ``False`` if it cannot.

        :func:`~repro.scenarios.faults.core_seam`'s ``(wiring, kinds)``
        for the simulator, given ``K_n``, window > 1, the default
        admission policy (no ``faithful_pause``), and none of the
        handlers the core replaces overridden.
        """
        if not (
            self._window > 1
            and type(self.graph) is CompleteGraph
            and not self._faithful_pause
            and handlers_unchanged(self, ClusteringSim, _CORE_HANDLERS)
            and not hasattr(type(self), "_unlock")
        ):
            return False
        return core_seam(self)

    # ------------------------------------------------------------------
    def run(self, *, max_time: float = 500.0, sample_every: float = 1.0) -> Clustering:
        """Run until every leader learned of the switch (or ``max_time``)."""
        check_run_inputs(max_time)
        check_positive("sample_every", sample_every)
        self.core = "python"
        self.sim.schedule_in(sample_every, self._sample, sample_every)
        if not self._run_core(max_time):
            self.sim.run(until=max_time)
        if not self.active_leaders:
            raise SimulationError(
                "clustering produced no active cluster; increase max_time or n"
            )
        if self._tracer.enabled_for("end"):
            clustered = sum(1 for leader in self._leader if leader >= 0)
            self._tracer.record(
                "end", self.sim.now, converged=True, counts=[],
                eps_time=None, clustered_fraction=clustered / self.n,
                active_leaders=len(self.active_leaders),
            )
        return Clustering(
            leader_of=self.leader_of,
            active_leaders=sorted(self.active_leaders),
            switch_times=dict(self.switch_times),
            elapsed=self.sim.now,
        )


#: Handlers whose work the compiled core does itself.
_CORE_HANDLERS = (
    "_tick", "_exchange", "_join", "_accepting", "_leader_signal", "_inform", "_refill_window",
    "_sample",
)
ClusteringSim._core_funcs = (
    ClusteringSim._tick,
    ClusteringSim._exchange,
    ClusteringSim._join,
    ClusteringSim._leader_signal,
    ClusteringSim._sample,
)


def publish_phase_metrics(phase, metrics) -> None:
    """Harvest one phase simulator's counters into a registry (epilogue).

    ``phase`` is a :class:`ClusteringSim` or a
    :class:`~repro.multileader.consensus.MultiLeaderConsensusSim`: its
    tick counters (a suppressed tick found its node locked), the core
    that ran it and its simulator's engine counters.
    """
    if metrics is None or not metrics.enabled:
        return
    metrics.add_counters(
        {
            "protocol.ticks_total": phase.total_ticks,
            "protocol.ticks_good": phase.good_ticks,
            "protocol.ticks_suppressed": phase.total_ticks - phase.good_ticks,
        }
    )
    metrics.counter(f"engine.core.{phase.core}").inc()
    phase.sim.publish_metrics(metrics)


def run_clustering(
    params: MultiLeaderParams,
    rng: np.random.Generator,
    *,
    max_time: float = 500.0,
    ready_units: float = 2.0,
    graph=None,
) -> Clustering:
    """Build a :class:`ClusteringSim` and run it (convenience front-end)."""
    sim = ClusteringSim(params, rng, ready_units=ready_units, graph=graph)
    return sim.run(max_time=max_time)
