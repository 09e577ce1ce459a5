"""The scaffold shared by the asynchronous protocol simulators.

The paper runs every protocol in one asynchronous model: rate-1 Poisson
clocks, channel-establishment delays, and a constant number of uniform
contacts per tick.  Its simulators —
:class:`~repro.core.single_leader.SingleLeaderSim` (and
:class:`~repro.core.delayed_exchange.DelayedExchangeSim` on top of it),
:class:`~repro.multileader.consensus.MultiLeaderConsensusSim`,
:class:`~repro.multileader.clustering.ClusteringSim` and
:class:`~repro.multileader.broadcast.BroadcastSim` — build on
:class:`AsyncProtocolSim`, which holds what they share:

* the constructor guard: a tracer goes to a pre-built simulator, not
  to the protocol; the graph has ``n`` nodes, none of them isolated;
  the initial counts match ``n`` and ``k``;
* tick windows: one initial tick per ticking node, and the tick-only
  window refill (the consensus phase, which batches its signals with
  the ticks, and the single leader's skip-tick chains bring their own);
* the hand-off of a run's event loop to the compiled core
  (:mod:`repro.core.fastcore`): each protocol names its entry and its
  handlers and says whether, and with which fault seam, the core models
  the run;
* numpy snapshot views of the per-node lists;
* for the two opinion protocols (single leader, consensus): the count
  state, :meth:`~AsyncProtocolSim.stats`, the run's prologue (input
  checks, the sampler, the ε-target and the decided-start poll) and
  the :class:`~repro.core.results.RunResult` fields they share.

The event handlers (``_tick``, ``_exchange``, ``_set_state``, the
signals) stay in each protocol's class: nothing here runs per event
except the decided-start poll, which only a run that starts decided
takes.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

from repro.core import fastcore
from repro.core.results import GenerationBirth, RunResult, StepStats, _matrix_stats
from repro.engine.network import CompleteGraph
from repro.engine.simulator import Simulator, schedule_tick_window
from repro.errors import ConfigurationError
from repro.util.validation import check_fraction, check_nonnegative, check_positive
from repro.workloads.bias import plurality_color, validate_counts

__all__ = ["AsyncProtocolSim", "check_run_inputs", "handlers_unchanged", "snapshot_view"]


def check_run_inputs(max_time, epsilon=None, record_every=None) -> None:
    """Reject a run budget the clock cannot honour, before anything runs.

    ``max_time`` must be a number ``>= 0`` (``inf`` runs to a stop),
    ``epsilon`` ``None`` or in the open ``(0, 1)``, and ``record_every``
    ``None`` or finite and ``> 0``.
    """
    check_nonnegative("max_time", max_time)
    if epsilon is not None:
        check_fraction("epsilon", epsilon)
    if record_every is not None:
        check_positive("record_every", record_every)


def snapshot_view(name: str, dtype, doc: str) -> property:
    """A read-only numpy snapshot of the per-node list ``name``."""
    get = attrgetter(name)
    return property(lambda self: np.asarray(get(self), dtype=dtype), doc=doc)


def handlers_unchanged(obj, owner: type, names) -> bool:
    """Whether ``obj``'s class inherits each handler in ``names`` from ``owner``."""
    cls = type(obj)
    return all(getattr(cls, name) is getattr(owner, name) for name in names)


class AsyncProtocolSim:
    """Base of the event-driven protocol simulators (see the module docstring).

    Parameters
    ----------
    params:
        The protocol's constants; ``n`` and ``k`` are read here, and
        ``max_generation`` and ``time_unit`` by the opinion protocols'
        helpers.
    rng:
        The run's one generator.
    graph:
        Communication substrate (defaults to ``K_n``; see
        :mod:`repro.scenarios.topology`).
    simulator:
        A pre-built simulator (e.g. one wrapped by
        :func:`repro.scenarios.faults.prepare_faulty_simulator`); it
        governs even the construction-time initial tick scheduling.
    tracer:
        Structured-trace sink for a simulator built here.
    """

    #: The compiled core's entry for this protocol (a function of the
    #: extension); the protocols without a core never reach it.
    _core_entry = ""
    #: The handlers the core recognises in (and writes back to) the
    #: event queue, in the core's event-kind order; each protocol sets
    #: it after its class body.
    _core_funcs: tuple = ()

    def __init__(self, params, rng: np.random.Generator, *, graph=None, simulator=None,
                 tracer=None):
        if simulator is not None and tracer is not None:
            raise ConfigurationError(
                "pass the tracer to the pre-built simulator, not the protocol"
            )
        if graph is None:
            graph = CompleteGraph(params.n)
        elif len(graph) != params.n:
            raise ConfigurationError(f"graph has {len(graph)} nodes but params.n={params.n}")
        elif getattr(graph, "min_degree", 1) < 1:
            raise ConfigurationError("graph has isolated nodes; contact sampling needs degree >= 1")
        self.params = params
        self.n = params.n
        self.k = params.k
        self.graph = graph
        self._rng = rng
        self.sim = Simulator(tracer=tracer) if simulator is None else simulator
        #: The core that ran the last run() ("c" or "python").
        self.core = "python"
        self._tracer = self.sim.tracer

    def _check_counts(self, counts) -> np.ndarray:
        """``counts`` validated against ``params.n`` and ``params.k``."""
        counts = validate_counts(counts)
        if int(counts.sum()) != self.n:
            raise ConfigurationError(f"counts sum to {int(counts.sum())} but params.n={self.n}")
        if counts.size != self.k:
            raise ConfigurationError(f"counts has {counts.size} colors but params.k={self.k}")
        return counts

    # ------------------------------------------------------------------
    # tick windows
    # ------------------------------------------------------------------
    def _schedule_first_ticks(self, nodes) -> None:
        """One initial tick per node of ``nodes`` (identical to the scalar engine).

        Each node's first tick then grows its chain to a full
        :attr:`~repro.engine.simulator.Simulator.tick_window`; ``_credit``
        counts the ticks left in each node's filed window.
        """
        self._window = self.sim.tick_window
        self._credit: list[int] = [1] * self.n
        schedule_in = self.sim.schedule_in
        tick = self._tick
        wait = self._tick_wait
        for node in nodes:
            schedule_in(wait(), tick, node)

    def _refill_window(self, node: int) -> None:
        """Pre-schedule the node's next tick window (one bulk insert).

        Ticks only: the protocols using it send each tick's signal (if
        any) from ``_tick`` itself.
        """
        window = self._window
        if window == 1:
            # Event-granular fallback: the legacy draw/push sequence.
            self.sim.schedule_in(self._tick_wait(), self._tick, node)
            return
        schedule_tick_window(self.sim, self._tick_wait, self._tick, node, window)
        self._credit[node] = window

    # ------------------------------------------------------------------
    # compiled core
    # ------------------------------------------------------------------
    def _core_seam(self):
        """``(wiring, kinds)`` for the compiled core, or ``False`` if it cannot run this run."""
        return False

    def _run_core(self, until: float) -> bool:
        """``sim.run(until=until)`` in the compiled core; ``False`` if it did not run."""
        seam = self._core_seam()
        if seam is False:
            return False
        core = fastcore.load()
        if core is None:
            return False
        if not getattr(core, self._core_entry)(self, until, self._core_funcs, *seam):
            return False
        self.core = "c"
        return True

    # ------------------------------------------------------------------
    # numpy snapshot views (external consumers: tests, experiments)
    # ------------------------------------------------------------------
    cols = snapshot_view("_cols", np.int64, "Per-node colors (snapshot array).")
    gens = snapshot_view("_gens", np.int64, "Per-node generations (snapshot array).")
    locked = snapshot_view("_locked", bool, "Per-node locked flags (snapshot array).")
    matrix = snapshot_view("_matrix", np.int64, "Generation×color count matrix (snapshot array).")
    color_counts = snapshot_view(
        "_color_counts", np.int64, "Current per-color node counts (snapshot array)."
    )
    leader_of = snapshot_view(
        "_leader_of", np.int64, "Per-node leader assignment, ``-1`` when unclustered (snapshot)."
    )

    # ------------------------------------------------------------------
    # opinion protocols: count state, observation, the run
    # ------------------------------------------------------------------
    def _init_counts(self, counts: np.ndarray, cols: list[int]) -> None:
        """Color and generation state for ``counts``, placed as ``cols``.

        Convergence is detected where counts change (each protocol's
        ``_set_state``), not polled per event: reaching ``n`` nodes of
        one color requests a simulator stop, and the ε-target is
        recorded the instant the plurality count crosses it.
        """
        self._cols = cols
        self._gens: list[int] = [0] * self.n
        self._locked: list[bool] = [False] * self.n
        rows = self.params.max_generation + 2
        self._matrix: list[list[int]] = [[0] * self.k for _ in range(rows)]
        self._matrix[0] = [int(c) for c in counts]
        self._color_counts: list[int] = [int(c) for c in counts]
        self.plurality = plurality_color(counts)
        self.births: list[GenerationBirth] = []
        self.trajectory: list[StepStats] = []
        self.good_ticks = 0
        self.total_ticks = 0
        self._eps_target: int | None = None
        self._eps_stop = False
        self._eps_time: float | None = None

    def stats(self) -> StepStats:
        """The population now, from the generation×color count matrix."""
        return _matrix_stats(self.matrix, self.n, self.sim.now)

    def _schedule_sampler(self, every: float) -> None:
        def sample() -> None:
            self.trajectory.append(self.stats())
            self.sim.schedule_in(every, sample)

        self.sim.schedule_in(every, sample)

    def _run_to_stop(self, max_time, epsilon, stop_at_epsilon, record_every) -> None:
        """Run until full consensus, the ε-target (if it stops), or ``max_time``.

        A decided start (all one color, or the ε-target already met)
        cannot trigger the ``_set_state`` hooks — the counts never cross
        a threshold they are already past — so it polls after every
        event in Python.  Any other run without a sampler runs in the
        compiled core when the protocol's core models it.
        """
        check_run_inputs(max_time, epsilon, record_every)
        self.core = "python"
        if record_every is not None:
            self._schedule_sampler(record_every)
        n = self.n
        counts = self._color_counts
        plurality = self.plurality
        target = None if epsilon is None else math.ceil((1.0 - epsilon) * n)
        self._eps_target = target
        self._eps_stop = stop_at_epsilon
        self._eps_time = None
        if max(counts) == n or (target is not None and counts[plurality] >= target):

            def done() -> bool:
                if target is not None and self._eps_time is None and counts[plurality] >= target:
                    self._eps_time = self.sim.now
                    if stop_at_epsilon:
                        return True
                return max(counts) == n

            self.sim.run(until=max_time, stop_when=done)
        elif record_every is not None or not self._run_core(max_time):
            self.sim.run(until=max_time)

    def _result(self, info: dict, **end_fields) -> RunResult:
        """Trace the run's ``end`` and build its :class:`RunResult`.

        ``info`` holds the protocol's own extras and ``end_fields`` the
        ``end`` record's, both after the fields every run shares.
        """
        counts = self._color_counts
        converged = max(counts) == self.n
        if self._tracer.enabled_for("end"):
            self._tracer.record(
                "end", self.sim.now, converged=converged, counts=[int(c) for c in counts],
                eps_time=self._eps_time, **end_fields,
            )
        return RunResult(
            converged=converged,
            winner=int(np.argmax(counts)),
            plurality_color=self.plurality,
            elapsed=self.sim.now,
            final_color_counts=self.color_counts,
            epsilon_convergence_time=self._eps_time,
            trajectory=self.trajectory,
            births=self.births,
            info={
                "events": float(self.sim.events_executed),
                "good_ticks": float(self.good_ticks),
                "total_ticks": float(self.total_ticks),
                **info,
                "time_unit": self.params.time_unit,
            },
        )
