"""Section 4.2 — constant-time broadcast among cluster leaders.

One leader holds a message. At every tick, each clustered node contacts
its own leader and two random nodes, requests their leaders' addresses,
and contacts those leaders; if any of the (up to three) leaders involved
is informed, the other contacted leaders become informed too. Because a
cluster of polylog size performs polylog contact rounds per time unit,
each cluster relays the message within ``O(1)`` time, and the leader
overlay floods in ``O(1)`` time overall (Theorem 28) — in contrast to
``Θ(log n)`` for flat push-pull gossip over ``n`` nodes.

:class:`BroadcastSim` measures exactly this: the time until all active
leaders are informed, given a :class:`~repro.multileader.clustering.Clustering`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.async_protocol import AsyncProtocolSim, check_run_inputs
from repro.engine.rng import ChannelDelayPool, ExponentialPool
from repro.errors import ConfigurationError
from repro.multileader.clustering import Clustering
from repro.multileader.params import MultiLeaderParams

__all__ = ["BroadcastResult", "BroadcastSim", "run_broadcast"]


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one leader-overlay broadcast."""

    all_informed_time: float | None
    informed_leaders: int
    total_leaders: int
    informed_trajectory: tuple[tuple[float, int], ...]

    @property
    def completed(self) -> bool:
        return self.all_informed_time is not None


class BroadcastSim(AsyncProtocolSim):
    """Event-driven broadcast among the leaders of an existing clustering."""

    def __init__(
        self,
        params: MultiLeaderParams,
        clustering: Clustering,
        rng: np.random.Generator,
        *,
        source: int | None = None,
        graph=None,
        simulator=None,
        tracer=None,
    ):
        super().__init__(params, rng, graph=graph, simulator=simulator, tracer=tracer)
        if clustering.n != params.n:
            raise ConfigurationError("clustering size does not match params.n")
        self._trace_phase = self._tracer.enabled_for("phase")
        self._tick_wait = ExponentialPool(rng, params.clock_rate)
        self._sample_other = self.graph.neighbor_pool(rng).sample
        # Own leader + two sampled nodes concurrently, then their leaders.
        self._channel_delay = ChannelDelayPool(rng, params.latency_rate, stages=(3, 2))
        self._leader_of: list[int] = clustering.leader_of.tolist()
        self.leaders = sorted(set(clustering.active_leaders))
        if not self.leaders:
            raise ConfigurationError("clustering has no active leaders")
        if source is None:
            source = self.leaders[0]
        if source not in self.leaders:
            raise ConfigurationError(f"source {source} is not an active leader")
        self.informed: dict[int, bool] = {leader: False for leader in self.leaders}
        self.informed[source] = True
        self.informed_count = 1
        self.trajectory: list[tuple[float, int]] = [(0.0, 1)]
        if self._tracer.enabled_for("run"):
            self._tracer.record(
                "run", self.sim.now, protocol="multileader_broadcast",
                n=self.n, k=0, counts=[], leaders=len(self.leaders),
            )
        self._locked: list[bool] = [False] * self.n
        self._active = set(self.leaders)
        self._schedule_first_ticks(
            node for node in range(self.n) if self._leader_of[node] in self._active
        )

    def _tick(self, node: int) -> None:
        credit = self._credit
        c = credit[node] - 1
        if c:
            credit[node] = c
        else:
            self._refill_window(node)
        if self._locked[node]:
            return
        self._locked[node] = True
        first, second = self._sample_other(node), self._sample_other(node)
        self.sim.schedule_in(self._channel_delay(), self._exchange, (node, first, second))

    def _exchange(self, payload: tuple[int, int, int]) -> None:
        node, first, second = payload
        leader_of = self._leader_of
        active = self._active
        informed = self.informed
        contacted = {leader_of[node]}
        for sample in (first, second):
            leader = leader_of[sample]
            if leader in active:
                contacted.add(leader)
        if any(informed.get(leader, False) for leader in contacted):
            for leader in contacted:
                if leader in active and not informed[leader]:
                    informed[leader] = True
                    self.informed_count += 1
                    self.trajectory.append((self.sim.now, self.informed_count))
                    if self._trace_phase:
                        self._tracer.record(
                            "phase", self.sim.now, event="informed",
                            leader=leader, informed=self.informed_count,
                        )
            if self.informed_count == len(self.leaders):
                self.sim.stop()
        self._locked[node] = False

    def run(self, *, max_time: float = 200.0) -> BroadcastResult:
        """Run until every active leader is informed (or ``max_time``)."""
        check_run_inputs(max_time)
        if self.informed_count == len(self.leaders):
            # Degenerate single-leader overlay: already informed; keep
            # the seed's stop-after-first-event semantics.
            self.sim.run(until=max_time, max_events=1)
        else:
            self.sim.run(until=max_time)
        completed = self.informed_count == len(self.leaders)
        if self._tracer.enabled_for("end"):
            self._tracer.record(
                "end", self.sim.now, converged=completed, counts=[],
                eps_time=None, informed=self.informed_count,
                leaders=len(self.leaders),
            )
        return BroadcastResult(
            all_informed_time=self.sim.now if completed else None,
            informed_leaders=self.informed_count,
            total_leaders=len(self.leaders),
            informed_trajectory=tuple(self.trajectory),
        )


def run_broadcast(
    params: MultiLeaderParams,
    clustering: Clustering,
    rng: np.random.Generator,
    *,
    source: int | None = None,
    max_time: float = 200.0,
    graph=None,
) -> BroadcastResult:
    """Build a :class:`BroadcastSim` and run it (convenience front-end)."""
    return BroadcastSim(params, clustering, rng, source=source, graph=graph).run(
        max_time=max_time
    )
