"""Composable fault models injected at the simulator layer.

Faults are *event-stream transforms*: :func:`inject_faults` wraps a
protocol simulator's scheduling methods with a classifier + transform
chain, so protocol code is untouched. Events are
classified by their bound handler's name — the repository-wide protocol
convention (``_tick`` clock events, ``_exchange``/``_tentative_exchange``/
``_commit``/``_join`` channel-completion events, ``_leader_signal``/
``_deliver_signal`` one-way signals); anything else (samplers, fault
internals) passes through untouched.

Fault semantics:

* **Dropping a signal** simply loses it — leaders count fewer 0-signals
  and phase transitions slow down, exactly the knob the paper's
  threshold analysis stresses.
* **Dropping an exchange** models a failed channel: the initiating node
  gives up its cycle (it is unlocked through the protocol adapter so it
  can tick again), and no state is read.
* **Crash/churn** marks nodes crashed; a crashed node's pending events
  are suppressed at dispatch time through a guard trampoline, its clock
  tick is deferred to the rejoin time (keeping the Poisson clock alive),
  and on rejoin its protocol state is reset (generation 0, cleared
  leader views) — the "state reset on rejoin" model of self-stabilizing
  population dynamics.
* **Stragglers** multiply channel-establishment delays of a fixed
  random subset of nodes.

Both scalar (``schedule`` / ``schedule_in``) and bulk
(``schedule_many_at``) scheduling are intercepted.  A block from a
window-batched protocol (see :mod:`repro.engine.simulator`) is checked
whole before anything is filed; a tick block without churn then goes
straight to the simulator, and any other block runs through the scalar
seam entry by entry, in block order.  Every draw, drop and pop happens
as if the entries had been scheduled one at a time — fault semantics
never depend on batching.
The tally stream's filing calls (``tally_at`` / ``tally_in``, the
single-leader 0-signals) take the same message transforms; an arrival
has no owner node, so churn never suppresses it.  Two residual notes:
(1) with :func:`inject_faults` the initial batch of
tick events is scheduled during protocol construction, *before* the
wrapper exists, so each node's very first tick escapes the churn guard
— construct the protocol over :func:`prepare_faulty_simulator`'s
pre-wrapped simulator to close that hole; (2) a crashed node's
already-scheduled 0-signals still arrive (in-flight messages survive
their sender's crash), bounded by one tick window.

Randomness flows from the generator handed to :func:`inject_faults`
through block-prefetched pools (:mod:`repro.engine.rng`), so faulty
runs stay exactly reproducible and cheap on the hot path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.rng import UniformPool
from repro.engine.simulator import Simulator
from repro.engine.tracing import NULL_TRACER
from repro.errors import ConfigurationError, SchedulingError
from repro.util.validation import check_positive

__all__ = [
    "FaultModel",
    "IidDrop",
    "GilbertElliottDrop",
    "Stragglers",
    "CrashChurn",
    "CrashAtTimes",
    "ProtocolAdapter",
    "FaultInjection",
    "core_seam",
    "inject_faults",
    "prepare_faulty_simulator",
    "build_faults",
    "fault_model_names",
    "gilbert_elliott_params",
]

#: Handler-name → event category. Everything unlisted is internal.
TICK = "tick"
EXCHANGE = "exchange"
MESSAGE = "message"
_CATEGORY: dict[str, str] = {
    "_tick": TICK,
    "_exchange": EXCHANGE,
    "_tentative_exchange": EXCHANGE,
    "_commit": EXCHANGE,
    "_join": EXCHANGE,
    "_leader_signal": MESSAGE,
    "_deliver_signal": MESSAGE,
}


def _node_of(name: str, payload: Any) -> int | None:
    """Best-effort owner node of an event (None when not attributable)."""
    if name == "_tick":
        return payload if isinstance(payload, int) else None
    if isinstance(payload, tuple) and payload and isinstance(payload[0], int):
        return payload[0]
    return None


class ProtocolAdapter:
    """Duck-typed bridge from generic faults to one protocol simulator.

    Works for every event-driven simulator in the repository
    (:class:`~repro.core.single_leader.SingleLeaderSim` and subclasses,
    :class:`~repro.multileader.consensus.MultiLeaderConsensusSim`,
    :class:`~repro.multileader.clustering.ClusteringSim`): they all keep
    ``_locked`` lists, and the generation-based ones expose
    ``_set_state`` plus per-node view lists that a rejoin reset clears.
    """

    def __init__(self, sim_obj: Any):
        self._sim_obj = sim_obj
        self.n = int(sim_obj.n)

    def unlock(self, node: int) -> None:
        """Abort the node's current cycle (failed channel semantics).

        Prefers the protocol's own ``_unlock`` hook when it exists —
        skip-tick protocols resume the node's pre-drawn tick chain there
        (see :meth:`repro.core.single_leader.SingleLeaderSim._unlock`);
        plain ``_locked`` clearing would silence the node forever.
        """
        unlock = getattr(self._sim_obj, "_unlock", None)
        if unlock is not None:
            unlock(node)
            return
        locked = getattr(self._sim_obj, "_locked", None)
        if locked is not None:
            locked[node] = False

    def reset(self, node: int) -> None:
        """Reset protocol state on rejoin: generation 0, cleared views.

        On :class:`~repro.multileader.clustering.ClusteringSim` the
        reset means forgetting cluster membership: a rejoining follower
        is unclustered again (its old cluster shrinks). A crashed
        *leader* keeps its role — leader failure is a different fault
        model than node churn.
        """
        sim = self._sim_obj
        if hasattr(sim, "_set_state") and hasattr(sim, "_cols"):
            sim._set_state(node, 0, sim._cols[node])
        for attr, value in (
            ("_seen_gen", -1),
            ("_seen_prop", -1),
            ("_tmp_gen", 0),
            ("_tmp_state", 0),
            ("_finished", False),
        ):
            store = getattr(sim, attr, None)
            if store is not None:
                store[node] = value
        membership = getattr(sim, "_leader", None)
        sizes = getattr(sim, "size", None)
        if membership is not None and sizes is not None:
            own = membership[node]
            if own >= 0 and own != node:
                membership[node] = -1
                if own in sizes:
                    sizes[own] -= 1
        self.unlock(node)


class FaultModel:
    """Base class: one composable transform over the scheduled stream."""

    def install(self, wiring: "FaultInjection") -> None:
        """Bind to one injection (draw pools, schedule internal events)."""

    def transform(self, category: str, node: int | None, delay: float) -> float | None:
        """Return the (possibly modified) delay, or ``None`` to drop."""
        return delay

    def crashed_until(self, node: int | None) -> float | None:
        """Churn hook: time the node rejoins, ``inf`` if never, ``None`` if alive."""
        return None

    def describe(self) -> str:
        """Human-readable one-liner for tables/logs."""
        return type(self).__name__

    def info(self) -> dict[str, float]:
        """Telemetry merged into run records (counters, not config)."""
        return {}


class IidDrop(FaultModel):
    """Drop each message/exchange independently with probability ``rate``."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"drop rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.dropped = 0

    def install(self, wiring: "FaultInjection") -> None:
        self._pool = UniformPool(wiring.rng)

    def transform(self, category: str, node: int | None, delay: float) -> float | None:
        if self.rate and self._pool() < self.rate:
            self.dropped += 1
            return None
        return delay

    def describe(self) -> str:
        return f"iid drop p={self.rate:g}"

    def info(self) -> dict[str, float]:
        return {"iid_dropped": float(self.dropped)}


class GilbertElliottDrop(FaultModel):
    """Bursty message loss: the classic two-state Gilbert–Elliott channel.

    The channel alternates between a *good* state (loss probability
    ``drop_good``) and a *bad* state (``drop_bad``); the state chain
    advances once per message event, so mean burst length is
    ``1 / to_good`` messages. One global channel is modeled — bursts
    hit the whole network at once, the hardest correlated-loss case.
    """

    def __init__(
        self,
        *,
        drop_good: float = 0.0,
        drop_bad: float = 0.9,
        to_bad: float = 0.05,
        to_good: float = 0.5,
    ):
        for name, value in (
            ("drop_good", drop_good),
            ("drop_bad", drop_bad),
            ("to_bad", to_bad),
            ("to_good", to_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        self.drop_good, self.drop_bad = float(drop_good), float(drop_bad)
        self.to_bad, self.to_good = float(to_bad), float(to_good)
        self.bad = False
        self.dropped = 0
        self.bursts = 0

    def install(self, wiring: "FaultInjection") -> None:
        self._pool = UniformPool(wiring.rng)

    def transform(self, category: str, node: int | None, delay: float) -> float | None:
        if self.bad:
            if self._pool() < self.to_good:
                self.bad = False
        elif self._pool() < self.to_bad:
            self.bad = True
            self.bursts += 1
        if self._pool() < (self.drop_bad if self.bad else self.drop_good):
            self.dropped += 1
            return None
        return delay

    def describe(self) -> str:
        return (
            f"Gilbert-Elliott drop good={self.drop_good:g} bad={self.drop_bad:g} "
            f"(to_bad={self.to_bad:g}, to_good={self.to_good:g})"
        )

    def info(self) -> dict[str, float]:
        return {"ge_dropped": float(self.dropped), "ge_bursts": float(self.bursts)}


class Stragglers(FaultModel):
    """A random node subset whose channel delays are multiplied.

    ``fraction`` of nodes (drawn once at install) see every exchange
    they initiate slowed by ``slowdown``; signals without an
    attributable owner are unaffected.
    """

    def __init__(self, fraction: float, slowdown: float = 4.0):
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"straggler fraction must be in [0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.slowdown = check_positive("slowdown", slowdown)
        self.count = 0

    def install(self, wiring: "FaultInjection") -> None:
        mask = wiring.rng.random(wiring.n) < self.fraction
        self._slow: list[bool] = mask.tolist()
        self.count = int(mask.sum())

    def transform(self, category: str, node: int | None, delay: float) -> float | None:
        if node is not None and self._slow[node]:
            return delay * self.slowdown
        return delay

    def describe(self) -> str:
        return f"stragglers {self.fraction:g} x{self.slowdown:g}"

    # No info() counters: the straggler count is a gauge derived from
    # config (fraction * n), and gauges must not be sum-merged when one
    # run instruments several phase simulators.


class _ChurnBase(FaultModel):
    """Shared crash bookkeeping: crashed-until map + rejoin resets."""

    def __init__(self, *, reset_on_rejoin: bool = True):
        self.reset_on_rejoin = reset_on_rejoin
        self._down: dict[int, float] = {}
        self.crashes = 0
        self.rejoins = 0

    def crashed_until(self, node: int | None) -> float | None:
        if node is None:
            return None
        return self._down.get(node)

    def _crash_node(self, node: int, until: float) -> None:
        self._down[node] = until
        self.crashes += 1
        wiring = getattr(self, "_wiring", None)
        if wiring is not None:
            tracer = wiring.sim.tracer
            if tracer.enabled_for("fault"):
                tracer.record("fault", wiring.sim.now, event="crash", node=node)

    def _rejoin(self, node: int) -> None:
        if self._down.pop(node, None) is not None:
            self.rejoins += 1
            adapter = self._wiring.adapter
            if self.reset_on_rejoin and adapter is not None:
                adapter.reset(node)
            tracer = self._wiring.sim.tracer
            if tracer.enabled_for("fault"):
                tracer.record("fault", self._wiring.sim.now, event="rejoin", node=node)

    def info(self) -> dict[str, float]:
        return {"crashes": float(self.crashes), "rejoins": float(self.rejoins)}


class CrashChurn(_ChurnBase):
    """Poisson churn: nodes crash at global rate ``rate`` and rejoin.

    Crash times form a Poisson process of intensity ``rate`` (crashes
    per simulated time unit, over the whole network); the crashed node
    is uniform and stays down for an ``Exp(1/mean_downtime)`` period,
    after which it rejoins with reset state (when ``reset_on_rejoin``).
    """

    def __init__(self, rate: float, *, mean_downtime: float = 1.0, reset_on_rejoin: bool = True):
        super().__init__(reset_on_rejoin=reset_on_rejoin)
        self.rate = check_positive("rate", rate)
        self.mean_downtime = check_positive("mean_downtime", mean_downtime)

    def install(self, wiring: "FaultInjection") -> None:
        self._wiring = wiring
        self._rng = wiring.rng
        wiring.schedule_internal(float(self._rng.exponential(1.0 / self.rate)), self._next_crash)

    def _next_crash(self, _payload: Any = None) -> None:
        wiring = self._wiring
        node = int(self._rng.integers(wiring.n))
        if node not in self._down:
            downtime = float(self._rng.exponential(self.mean_downtime))
            self._crash_node(node, wiring.sim.now + downtime)
            wiring.schedule_internal(downtime, self._rejoin, node)
        wiring.schedule_internal(float(self._rng.exponential(1.0 / self.rate)), self._next_crash)

    def describe(self) -> str:
        return f"Poisson churn rate={self.rate:g} downtime={self.mean_downtime:g}"


class CrashAtTimes(_ChurnBase):
    """Deterministic crash schedule: ``{node: crash_time}``.

    ``downtime=None`` crashes nodes permanently (their clocks die);
    otherwise each node rejoins ``downtime`` later with reset state.
    """

    def __init__(
        self,
        schedule: dict[int, float],
        *,
        downtime: float | None = None,
        reset_on_rejoin: bool = True,
    ):
        super().__init__(reset_on_rejoin=reset_on_rejoin)
        if not schedule:
            raise ConfigurationError("crash schedule must name at least one node")
        self.schedule = {int(node): float(when) for node, when in schedule.items()}
        self.downtime = None if downtime is None else check_positive("downtime", downtime)

    def install(self, wiring: "FaultInjection") -> None:
        self._wiring = wiring
        for node, when in sorted(self.schedule.items()):
            if not 0 <= node < wiring.n:
                raise ConfigurationError(f"crash schedule names unknown node {node}")
            wiring.schedule_internal(max(0.0, when - wiring.sim.now), self._crash_now, node)

    def _crash_now(self, node: int) -> None:
        wiring = self._wiring
        if self.downtime is None:
            self._crash_node(node, math.inf)
        else:
            self._crash_node(node, wiring.sim.now + self.downtime)
            wiring.schedule_internal(self.downtime, self._rejoin, node)

    def describe(self) -> str:
        tail = "permanently" if self.downtime is None else f"for {self.downtime:g}"
        return f"crash {len(self.schedule)} node(s) {tail}"


class FaultInjection:
    """One wiring of fault models into a protocol simulator.

    Created by :func:`inject_faults` (wrap + bind in one step, after
    protocol construction) or :func:`prepare_faulty_simulator` (wrap a
    bare :class:`~repro.engine.simulator.Simulator` *before* protocol
    construction, then :meth:`bind` the protocol object — the only way
    the nodes' initial ticks are governed too).  Exposes telemetry
    through :meth:`info` and the internal scheduling seam fault models
    use.

    Both the scalar (``schedule`` / ``schedule_in``) and the bulk
    (``schedule_many_at``) scheduling paths are intercepted; a bulk
    block is checked whole, then runs the same per-event transform
    chain in block order, so fault semantics are independent of how the
    protocol batches its inserts.  Tally arrivals (``tally_at`` /
    ``tally_in``) take the message transforms with the same arithmetic
    as a ``_leader_signal`` event.
    """

    def __init__(
        self,
        sim: Any,
        faults: Sequence[FaultModel],
        rng: np.random.Generator,
        *,
        n: int,
    ):
        self.adapter: ProtocolAdapter | None = None
        self.n = int(n)
        self.sim = sim
        self.rng = rng
        self.faults = list(faults)
        self.dropped_messages = 0
        self.dropped_exchanges = 0
        self.deferred_ticks = 0
        self.dead_ticks = 0
        self._original_schedule = sim.schedule
        self._original_schedule_in = sim.schedule_in
        self._original_schedule_many_at = sim.schedule_many_at
        self._original_tally_in = sim.tally_in
        self._has_churn = any(
            isinstance(fault, _ChurnBase) or type(fault).crashed_until is not FaultModel.crashed_until
            for fault in faults
        )
        # Instance-attribute overrides: every protocol handler looks the
        # scheduling methods up on the simulator object per call.
        sim.schedule = self._schedule
        sim.schedule_in = self._schedule_in
        sim.schedule_many_at = self._schedule_many_at
        sim.tally_at = self._tally_at
        sim.tally_in = self._tally_in
        for fault in self.faults:
            fault.install(self)

    def bind(self, sim_obj: Any) -> "FaultInjection":
        """Attach the protocol object (unlock/reset seam) after construction."""
        self.adapter = ProtocolAdapter(sim_obj)
        return self

    # -- seam for fault internals (bypasses classification) ------------
    def schedule_internal(self, delay: float, action: Callable, payload: Any = None) -> int:
        """Schedule a fault-model event outside the transform chain."""
        return self._original_schedule_in(delay, action, payload)

    # -- the wrapped scheduling paths ------------------------------------
    def _schedule(self, time: float, action: Callable, payload: Any = None) -> int:
        """Absolute-time seam: route through the scalar transform chain."""
        return self._schedule_in(time - self.sim.now, action, payload)

    def _schedule_many_at(self, times, action: Callable, payloads=None) -> Sequence[int]:
        """Bulk seam (absolute times): whole-block check, then filing.

        A past or NaN time, or a payload count that does not match,
        raises before anything is drawn, dropped or filed.  A tick block
        without churn takes no transforms and goes to the simulator
        whole; any other classified block runs through the scalar seam
        entry by entry, in block order.  Both routes compute times with
        the scalar seam's arithmetic (``now + (time - now)``).
        """
        if isinstance(times, np.ndarray):
            times = times.tolist()  # plain floats: numpy scalars never reach ``now``
        now = self.sim.now
        category = _CATEGORY.get(getattr(action, "__name__", ""))
        if category is None or (category is TICK and not self._has_churn):
            # No transforms and no guard; the simulator checks the block.
            return self._original_schedule_many_at(
                [now + (time - now) for time in times], action, payloads
            )
        total = sum(times)  # a NaN anywhere poisons the sum
        if times and (not min(times) >= now or total != total):
            raise SchedulingError(f"bulk schedule contains a past or NaN time (now={now})")
        if payloads is None:
            payloads = [None] * len(times)
        elif len(payloads) != len(times):
            raise SchedulingError(
                f"bulk schedule got {len(times)} times but {len(payloads)} payloads"
            )
        return [
            self._schedule_in(time - now, action, payload)
            for time, payload in zip(times, payloads)
        ]

    def _tally_at(self, times) -> None:
        """Tally seam (absolute times): whole-block check, per-arrival transforms.

        Past, NaN and infinite times anywhere in the block raise before
        any arrival is drawn for, dropped or filed.
        """
        now = self.sim.now
        for time in times:
            if not now <= time < math.inf:  # rejects past, NaN and inf
                raise SchedulingError(
                    f"cannot tally an arrival at {time} (now={now})"
                )
        for time in times:
            self._tally_in(time - now)

    def _tally_in(self, delay: float) -> None:
        for fault in self.faults:
            transformed = fault.transform(MESSAGE, None, delay)
            if transformed is None:
                self._note_drop(MESSAGE, None)
                return
            delay = transformed
        self._original_tally_in(delay)

    def _schedule_in(self, delay: float, action: Callable, payload: Any = None) -> int:
        name = getattr(action, "__name__", "")
        category = _CATEGORY.get(name)
        if category is None or (category is TICK and not self._has_churn):
            return self._original_schedule_in(delay, action, payload)
        node = _node_of(name, payload)
        if category is not TICK:
            for fault in self.faults:
                transformed = fault.transform(category, node, delay)
                if transformed is None:
                    self._note_drop(category, node)
                    # The drop uses up the sequence number the event
                    # would have had, as the compiled cores' send does.
                    return self.sim.reserve_seq()
                delay = transformed
        if self._has_churn:
            return self._original_schedule_in(
                delay, self._guard, (action, payload, category, node)
            )
        return self._original_schedule_in(delay, action, payload)

    def _guard(self, bundle: tuple) -> None:
        """Dispatch-time churn check (the trampoline for governed events)."""
        action, payload, category, node = bundle
        until = None
        for fault in self.faults:
            down = fault.crashed_until(node)
            if down is not None:
                until = down if until is None else max(until, down)
        if until is None:
            if payload is None:
                action()
            else:
                action(payload)
            return
        if category is TICK:
            if until is math.inf:
                # Permanently crashed: the node's clock dies silently.
                self.dead_ticks += 1
                return
            # Keep the Poisson clock alive: resume the tick at rejoin.
            # The rejoin event carries an earlier sequence number, so
            # the node is reset before this tick fires.
            self.deferred_ticks += 1
            self._original_schedule_in(max(0.0, until - self.sim.now), self._guard, bundle)
            return
        self._note_drop(category, node)

    def _note_drop(self, category: str, node: int | None) -> None:
        if category is MESSAGE:
            self.dropped_messages += 1
            event = "dropped-message"
        else:
            self.dropped_exchanges += 1
            event = "dropped-exchange"
            if node is not None and self.adapter is not None:
                self.adapter.unlock(node)
        tracer = self.sim.tracer
        if tracer.enabled_for("fault"):
            tracer.record("fault", self.sim.now, event=event, node=node)

    # -- telemetry ------------------------------------------------------
    def info(self) -> dict[str, float]:
        """Flat counters for run records (prefixed ``fault_``)."""
        merged: dict[str, float] = {
            "fault_dropped_messages": float(self.dropped_messages),
            "fault_dropped_exchanges": float(self.dropped_exchanges),
            "fault_deferred_ticks": float(self.deferred_ticks),
            "fault_dead_ticks": float(self.dead_ticks),
        }
        for fault in self.faults:
            for key, value in fault.info().items():
                merged[f"fault_{key}"] = merged.get(f"fault_{key}", 0.0) + value
        return merged

    def publish_metrics(self, metrics) -> None:
        """Harvest the per-model drop/crash/rejoin counters (epilogue).

        Counter names drop the record-level ``fault_`` prefix in favor
        of the registry's ``faults.`` namespace: ``faults.iid_dropped``,
        ``faults.crashes``, ``faults.rejoins``, ...
        """
        if metrics is None or not metrics.enabled:
            return
        for key, value in self.info().items():
            metrics.counter("faults." + key.removeprefix("fault_")).inc(value)

    def describe(self) -> str:
        return ", ".join(fault.describe() for fault in self.faults) or "no faults"


#: Simulator methods a fault seam may shadow on the instance.
_SIMULATOR_METHODS = frozenset(name for name, value in vars(Simulator).items() if callable(value))
#: The shadowing a FaultInjection installs, by simulator method.
_SEAM_METHODS = {
    "schedule": FaultInjection._schedule,
    "schedule_in": FaultInjection._schedule_in,
    "schedule_many_at": FaultInjection._schedule_many_at,
    "tally_at": FaultInjection._tally_at,
    "tally_in": FaultInjection._tally_in,
}
#: The fault models the compiled cores run, numbered as they expect them.
_CORE_FAULT_KINDS = {IidDrop: 0, GilbertElliottDrop: 1, Stragglers: 2}


def core_seam(sim_obj: Any):
    """How a compiled core can schedule ``sim_obj``'s events, or ``False``.

    ``sim_obj.sim`` must be a plain :class:`Simulator` with no tracer.
    ``(None, ())`` when its scheduling methods are its own;
    ``(wiring, kinds)`` when they are shadowed by exactly one
    :class:`FaultInjection` (as :func:`prepare_faulty_simulator` and
    :func:`inject_faults` install it) that is bound to ``sim_obj``, has
    no churn, and whose models are all exactly :class:`IidDrop`,
    :class:`GilbertElliottDrop` or :class:`Stragglers` (``kinds``
    numbers them in model order, 0, 1 and 2).  Both multi-leader phases
    hand the pair to their core, which runs the transforms in C.
    """
    sim = sim_obj.sim
    if type(sim) is not Simulator or sim.tracer is not NULL_TRACER:
        return False
    shadowed = vars(sim).keys() & _SIMULATOR_METHODS
    if not shadowed:
        return None, ()
    wiring = getattr(sim.schedule_in, "__self__", None)
    if (
        type(wiring) is not FaultInjection
        or wiring.sim is not sim
        or shadowed != _SEAM_METHODS.keys()
        or any(
            getattr(vars(sim)[name], "__self__", None) is not wiring
            or getattr(vars(sim)[name], "__func__", None) is not method
            for name, method in _SEAM_METHODS.items()
        )
        or any(
            getattr(original, "__self__", None) is not sim
            or getattr(original, "__func__", None) is not getattr(Simulator, name)
            for name, original in (
                ("schedule_in", wiring._original_schedule_in),
                ("schedule_many_at", wiring._original_schedule_many_at),
            )
        )
        or wiring._has_churn
        or type(wiring.adapter) is not ProtocolAdapter
        or wiring.adapter._sim_obj is not sim_obj
        or not all(type(fault) in _CORE_FAULT_KINDS for fault in wiring.faults)
    ):
        return False
    return wiring, tuple(_CORE_FAULT_KINDS[type(fault)] for fault in wiring.faults)


def inject_faults(
    sim_obj: Any, faults: Sequence[FaultModel], rng: np.random.Generator
) -> FaultInjection | None:
    """Wire ``faults`` into a built (not yet run) protocol simulator.

    Returns the :class:`FaultInjection` (telemetry handle), or ``None``
    when ``faults`` is empty — the zero-fault path leaves the simulator
    byte-identical to an uninstrumented run.

    NOTE: the protocol's construction-time scheduling (each node's
    initial tick) predates this call and therefore escapes the fault
    transforms; use :func:`prepare_faulty_simulator` to govern a run
    from its very first event.
    """
    faults = [fault for fault in faults if fault is not None]
    if not faults:
        return None
    return FaultInjection(sim_obj.sim, faults, rng, n=int(sim_obj.n)).bind(sim_obj)


def prepare_faulty_simulator(
    n: int,
    faults: Sequence[FaultModel],
    rng: np.random.Generator,
    *,
    tracer=None,
) -> "tuple[Simulator | None, FaultInjection | None]":
    """Pre-wrap a fresh :class:`Simulator` so construction is governed too.

    Returns ``(simulator, injection)``.  Pass the simulator to the
    protocol constructor (``simulator=``) and call
    ``injection.bind(protocol)`` once it is built — then even the
    initial batch of tick events flows through the fault transforms,
    closing the churn-guard escape that :func:`inject_faults` documents
    (a node crashed at t=0 will never fire its first tick).

    With an empty fault list both elements are ``None``: the protocol
    builds its own simulator and stays byte-identical to an
    uninstrumented run.  ``tracer`` is attached to the built simulator
    (fault-free traced runs still get a simulator so records flow).
    """
    faults = [fault for fault in faults if fault is not None]
    if not faults:
        if tracer is None:
            return None, None
        return Simulator(tracer=tracer), None
    simulator = Simulator(tracer=tracer)
    return simulator, FaultInjection(simulator, faults, rng, n=n)


#: Named drop models for the ``drop_model=`` sweep axis.
_DROP_MODELS = ("iid", "bursty")


def fault_model_names() -> list[str]:
    """Named drop models usable from sweep grids."""
    return sorted(_DROP_MODELS)


def gilbert_elliott_params(drop: float) -> dict[str, float]:
    """Gilbert–Elliott parameters whose stationary loss equals ``drop``.

    Shared by the event-stream (:func:`build_faults`) and round-level
    (:func:`repro.scenarios.round_faults.build_round_faults`) builders,
    so matched ``drop`` knobs mean matched marginal loss on both seams.
    The stationary bad fraction is ``to_bad / (to_bad + to_good)``,
    capped at 2/3 by ``to_bad <= 1``; the marginal loss
    ``stationary * drop_bad + (1 - stationary) * drop_good`` is solved
    to equal the requested rate exactly (bad-state dwell tuned to burst
    ~2 messages; beyond the bad state's capacity the residual loss is
    assigned to the good state).
    """
    if not 0.0 <= drop < 1.0:
        raise ConfigurationError(f"drop rate must be in [0, 1), got {drop}")
    to_good = 0.5
    drop_bad = max(0.9, drop)
    stationary = min(2.0 / 3.0, drop / drop_bad) if drop else 0.0
    to_bad = stationary * to_good / (1.0 - stationary)
    drop_good = (
        max(0.0, (drop - stationary * drop_bad) / (1.0 - stationary)) if drop else 0.0
    )
    return {
        "drop_good": drop_good,
        "drop_bad": drop_bad,
        "to_bad": to_bad,
        "to_good": to_good,
    }


def build_faults(
    *,
    drop: float = 0.0,
    drop_model: str = "iid",
    churn: float = 0.0,
    churn_downtime: float = 1.0,
    stragglers: float = 0.0,
    straggler_slowdown: float = 4.0,
) -> list[FaultModel]:
    """Build a fault list from flat scalar knobs (the sweep-axis seam).

    ``drop`` is the marginal loss rate: ``iid`` uses it directly, and
    ``bursty`` maps it onto a Gilbert–Elliott channel whose stationary
    loss matches *exactly* (bad-state dwell tuned to burst ~2 messages;
    beyond the bad state's capacity the residual loss is assigned to
    the good state, so iid-vs-bursty grid comparisons stay honest at
    every rate).
    """
    if not 0.0 <= drop < 1.0:
        raise ConfigurationError(f"drop rate must be in [0, 1), got {drop}")
    faults: list[FaultModel] = []
    if drop:
        if drop_model == "iid":
            faults.append(IidDrop(drop))
        elif drop_model == "bursty":
            faults.append(GilbertElliottDrop(**gilbert_elliott_params(drop)))
        else:
            raise ConfigurationError(
                f"unknown drop model {drop_model!r}; available: {', '.join(fault_model_names())}"
            )
    if churn:
        faults.append(CrashChurn(churn, mean_downtime=churn_downtime))
    if stragglers:
        faults.append(Stragglers(stragglers, slowdown=straggler_slowdown))
    return faults
