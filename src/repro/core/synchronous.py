"""Algorithm 1 — the synchronous generation protocol.

Every node holds ``(gen, col)``. In each synchronous step every node
samples two uniform neighbors ``v', v''`` (w.l.o.g.
``gen(v') ≥ gen(v'')``) and applies, in order:

* **two-choices** (only at scheduled times ``{t_i}``): if both samples
  share generation ``i ≥ gen(v)`` *and* color, adopt that color and move
  to generation ``i + 1``;
* **propagation**: otherwise, if ``gen(v') > gen(v)``, adopt ``v'``'s
  generation and color.

Two exact simulators are provided:

:class:`PerNodeSynchronousSim`
    Literal per-node implementation (self-sampling excluded). Its state
    layout and its round are shared with the sharded per-node engine
    (:mod:`repro.shard.synchronous`): ``colors``/``generations`` in the
    narrow dtype of :func:`state_dtype`, and one entry,
    :func:`pernode_round`, that draws both contact vectors with numpy
    and then runs the round in the compiled extension's single pass, or
    in numpy passes when it is not built. A round writes the new state
    and its ``(gen, col)`` tally (:func:`state_tally`), which serves the
    count matrix and the schedule's top-generation share.

:class:`AggregateSynchronousSim`
    The per-node update depends only on the sampled pair's
    ``(generation, color)``, so the count matrix ``M[g, c]`` evolves as
    an exact multinomial process. This simulator draws those multinomials
    directly and scales to millions of nodes. Its single approximation:
    pairs are sampled from the full population (the sampler itself
    included), an ``O(1/n)`` perturbation of the per-node law.

Both engines consult an optional round-level fault wiring
(:class:`repro.scenarios.round_faults.RoundFaults`) at the top of every
step: message loss and stragglers mask which nodes *act* (their state
stays readable as a contact), and churn parks nodes in a down pool from
which they rejoin at generation 0 with their color kept — the same
reset rule the event-stream faults apply to the asynchronous protocols.
With ``round_faults=None`` (the default) the step consumes exactly the
pre-fault randomness, so default trajectories stay byte-identical.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core import fastcore
from repro.core.results import (
    GenerationBirth,
    RunResult,
    StepStats,
    _matrix_stats,
    _top_generation,
)
from repro.core.schedule import Schedule
from repro.engine.network import CompleteGraph
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import ConfigurationError
from repro.workloads.bias import (
    collision_probability,
    multiplicative_bias,
    plurality_color,
    validate_counts,
)
from repro.workloads.opinions import counts_to_assignment, validate_assignment

__all__ = [
    "PerNodeSynchronousSim",
    "AggregateSynchronousSim",
    "aggregate_round",
    "pernode_round",
    "pernode_update",
    "run_synchronous",
    "state_dtype",
    "state_tally",
]


def aggregate_round(
    global_matrix: np.ndarray,
    local_matrix: np.ndarray,
    n: int,
    rng: np.random.Generator,
    *,
    two_choices_step: bool,
    promotion: str = "pair",
    participation: float = 1.0,
    down: np.ndarray | None = None,
) -> np.ndarray:
    """One multinomial round of Algorithm 1 over a count matrix.

    The per-group outcome *probabilities* are built from
    ``global_matrix`` (the whole population — contacts are sampled from
    everyone) while the *counts* that move are ``local_matrix``. The
    unsharded engine passes the same matrix for both; the sharded
    aggregate engine passes the cross-shard sum as ``global_matrix`` and
    its own slice as ``local_matrix`` — summing the shards' independent
    multinomial draws with shared probabilities is exactly the global
    multinomial, so the sharded process has the same law.

    ``participation``/``down`` carry the round-fault seam (loss and
    straggler thinning, churned-down frozen counts) exactly as before
    the extraction.
    """
    rows, k = local_matrix.shape
    fractions = global_matrix / n
    per_generation = fractions.sum(axis=1)
    occupied = np.nonzero(per_generation)[0]
    top = int(occupied[-1])
    below = np.concatenate(([0.0], np.cumsum(per_generation)))[:-1]  # Σ_{g<j}
    new_matrix = np.zeros_like(local_matrix)
    flat_categories = rows * k
    for g in occupied:
        g = int(g)
        if not local_matrix[g].any():
            continue  # a globally occupied generation this slice doesn't hold
        probs = np.zeros((rows, k))
        if two_choices_step and g + 1 < rows:
            upper = min(top, rows - 2)
            if promotion == "pair":
                # Pairs both in generation i >= g with equal colors
                # promote to (i+1, color); the slice shifts rows by one.
                probs[g + 1 : upper + 2, :] += fractions[g : upper + 1, :] ** 2
            else:
                # Ablation: one sample in generation i >= g suffices.
                probs[g + 1 : upper + 2, :] += fractions[g : upper + 1, :]
        if top > g and not (two_choices_step and promotion == "single"):
            span = slice(g + 1, top + 1)
            adopt = fractions[span, :] * (
                2.0 * below[span][:, None] + per_generation[span][:, None]
            )
            if two_choices_step:
                adopt = adopt - fractions[span, :] ** 2
            probs[span, :] += adopt
        flat = probs.ravel()
        total = float(flat.sum())
        if total > 1.0:  # float round-off guard
            flat = flat / total
            total = 1.0
        if participation < 1.0:
            flat = flat * participation
            total *= participation
        full = np.append(flat, 1.0 - total)
        for c in np.nonzero(local_matrix[g])[0]:
            count = int(local_matrix[g, c])
            frozen = 0 if down is None else min(int(down[g, c]), count)
            outcome = rng.multinomial(count - frozen, full)
            moved = outcome[:flat_categories].reshape(rows, k)
            new_matrix += moved
            new_matrix[g, c] += outcome[flat_categories] + frozen
    return new_matrix


def pernode_update(
    gen_a: np.ndarray,
    col_a: np.ndarray,
    gen_b: np.ndarray,
    col_b: np.ndarray,
    own_gens: np.ndarray,
    own_cols: np.ndarray,
    two_choices_step: bool,
    active: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One round of Algorithm 1's per-node rule; returns new ``(gens, cols)``.

    ``(gen_a, col_a)`` and ``(gen_b, col_b)`` are each node's two sampled
    contacts and ``own_*`` its current state. The higher-generation
    sample ``v'`` is ``(max(gen_a, gen_b), col_hi)``; the two-choices
    test is symmetric in the pair, so no swap is needed. A promoted node
    lands one generation above the pair, so after ``gen_hi += two_choices``
    every node adopts exactly when ``gen_hi > own_gens``. ``active``
    (round faults) masks nodes that learn nothing this round.

    Selections are integer arithmetic, ``b + mask * (a - b)``, not
    ``np.where``, whose per-element branch is several times slower on
    random masks; the results are the same integers in the inputs'
    dtype. The inputs are only read, so callers may pass views of the
    state they overwrite.
    """
    gen_hi = np.maximum(gen_a, gen_b)
    col_hi = col_a + (gen_b > gen_a) * (col_b - col_a)
    if two_choices_step:
        two_choices = (gen_a == gen_b) & (col_a == col_b) & (own_gens <= gen_hi)
        if active is not None:
            two_choices &= active
        gen_hi += two_choices
    adopt = gen_hi > own_gens
    if active is not None:
        adopt &= active
    return (
        own_gens + adopt * (gen_hi - own_gens),
        own_cols + adopt * (col_hi - own_cols),
    )


def state_dtype(rows: int, k: int) -> type:
    """``int8`` per-node state when every generation, color and difference
    of two fits, else ``int64``; generations stay below ``rows - 1``, so
    ``gen + 1`` cannot overflow. Narrow state makes the gathers cheap.
    """
    return np.int8 if max(rows, k) <= np.iinfo(np.int8).max else np.int64


def state_tally(gens: np.ndarray, cols: np.ndarray, k: int, size: int) -> np.ndarray:
    """Flat ``(gen, col)`` counts (``size = rows * k``) of per-node state:
    ``np.bincount`` of the intp keys ``gen * k + col``.
    """
    keys = gens.astype(np.intp)
    keys *= k
    keys += cols
    return np.bincount(keys, minlength=size)


def pernode_round(
    rng: np.random.Generator,
    generations: np.ndarray,
    colors: np.ndarray,
    two_choices_step: bool,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    k: int,
    start: int = 0,
    active: np.ndarray | None = None,
    graph=None,
    kernel=None,
) -> None:
    """One round of Algorithm 1 for the nodes ``start .. start + m`` of the
    full state arrays, written into ``out = (new_gens, new_cols, tally)``.

    ``new_gens``/``new_cols`` hold the ``m`` nodes' new state (the state's
    dtype, not overlapping it) and ``tally`` the flat ``(gen, col)`` counts
    of that new state (size ``rows * k``). Each node draws two contacts:
    on the clique, uniform among the other ``n - 1`` nodes (two
    ``rng.integers(n - 1, size=m)`` vectors, each shifted up by one at or
    above the node's own index); on a sparse ``graph``, two
    :meth:`~repro.scenarios.topology.SparseGraph.sample_per_node` vectors
    (``start = 0``, every node). ``active`` masks nodes that learn nothing.

    ``kernel`` is the compiled extension (:func:`repro.core.fastcore.load`)
    or ``None``. With it, one C pass does the shift, the gathers, the rule
    and the tally; without it the numpy passes below do, and they stay
    its oracle. Both consume the same draws and write the same integers.
    """
    new_gens, new_cols, tally = out
    size = new_gens.size
    if graph is None:
        n = generations.size
        first = rng.integers(n - 1, size=size)
        second = rng.integers(n - 1, size=size)
    else:
        first = graph.sample_per_node(rng)
        second = graph.sample_per_node(rng)
    if kernel is not None:
        kernel.pernode_round(
            first, second, generations, colors, start, k, two_choices_step, active,
            graph is None, new_gens, new_cols, tally,
        )
        return
    stop = start + size
    if graph is None:
        own = np.arange(start, stop)
        first += first >= own
        second += second >= own
    gens, cols = pernode_update(
        generations[first],
        colors[first],
        generations[second],
        colors[second],
        generations[start:stop],
        colors[start:stop],
        two_choices_step,
        active,
    )
    new_gens[:] = gens
    new_cols[:] = cols
    tally[:] = state_tally(gens, cols, k, tally.size)


def _mean_field_top_share(matrix: np.ndarray, n: int) -> float:
    """The aggregate engines' schedule feed: the top generation's fractions summed."""
    per_generation = (matrix / n).sum(axis=1)
    return float(per_generation[np.nonzero(per_generation)[0][-1]])


class _SynchronousBase:
    """Shared run loop and bookkeeping for both synchronous simulators."""

    n: int
    k: int
    schedule: Schedule
    steps_done: int
    #: Structured-trace sink (round records, generation births, end
    #: summary); constructors overwrite it when a tracer is passed.
    _tracer: Tracer = NULL_TRACER
    _trace_protocol = "synchronous"
    #: Optional round-fault wiring (subclass constructors overwrite).
    _round_faults = None
    #: Per-round active-fraction sampling, off unless a metrics run
    #: opts in via :meth:`enable_metrics_sampling` — the default step
    #: never pays for it.
    _track_active = False
    _active_fractions: "list[float] | tuple" = ()

    def _setup(self, counts, schedule, rng, tracer, round_faults=None) -> np.ndarray:
        """Constructor prologue shared by every engine; returns ``counts`` validated."""
        counts = validate_counts(counts)
        self.n = int(counts.sum())
        if self.n < 2:
            raise ConfigurationError("need at least 2 nodes")
        self.k = int(counts.size)
        self.schedule = schedule
        schedule.reset()
        self._rng = rng
        self._rows = schedule.max_generation + 2
        self.steps_done = 0
        self._round_faults = round_faults
        if tracer is not None:
            self._tracer = tracer
            if round_faults is not None:
                round_faults.tracer = tracer
        return counts

    def enable_metrics_sampling(self) -> None:
        """Opt in to per-round active-fraction sampling (metrics runs)."""
        self._track_active = self._round_faults is not None
        self._active_fractions = []

    def step(self) -> None:
        raise NotImplementedError

    def generation_color_matrix(self) -> np.ndarray:
        """Current ``(max_generation+2, k)`` count matrix."""
        raise NotImplementedError

    def color_counts(self) -> np.ndarray:
        return self.generation_color_matrix().sum(axis=0)

    def stats(self) -> StepStats:
        return _matrix_stats(self.generation_color_matrix(), self.n, float(self.steps_done))

    def _note_births(
        self, matrix: np.ndarray, before_top: int, births: list[GenerationBirth]
    ) -> int:
        top, _ = _top_generation(matrix, self.n)
        trace_phase = self._tracer.enabled_for("phase")
        for generation in range(before_top + 1, top + 1):
            row = matrix[generation]
            if row.sum() == 0:  # pragma: no cover - defensive
                continue
            births.append(
                GenerationBirth(
                    generation=generation,
                    time=float(self.steps_done),
                    fraction=float(row.sum()) / self.n,
                    bias=multiplicative_bias(row),
                    collision_probability=collision_probability(row),
                )
            )
            if trace_phase:
                self._tracer.record(
                    "phase",
                    float(self.steps_done),
                    event="generation",
                    gen=generation,
                    fraction=float(row.sum()) / self.n,
                )
        return top

    def run(
        self,
        *,
        max_steps: int = 10_000,
        epsilon: float | None = None,
        record_trajectory: bool = False,
        on_step: Callable[[StepStats], None] | None = None,
    ) -> RunResult:
        """Run until consensus or ``max_steps``.

        Parameters
        ----------
        max_steps:
            Step budget; the run result reports ``converged=False`` when
            exhausted (no exception — experiments inspect the flag).
        epsilon:
            If given, record the first step at which the initially
            dominant color covers a ``1 − ε`` fraction.
        record_trajectory:
            Keep a :class:`StepStats` entry per step.
        on_step:
            Optional observer invoked with each step's stats.
        """
        initial_colors = self.color_counts()
        plurality = plurality_color(initial_colors)
        tracer = self._tracer
        if tracer.enabled_for("run"):
            tracer.record(
                "run",
                float(self.steps_done),
                protocol=self._trace_protocol,
                n=self.n,
                k=self.k,
                counts=[int(c) for c in initial_colors],
            )
        trace_round = tracer.enabled_for("round")
        births: list[GenerationBirth] = []
        trajectory: list[StepStats] = []
        epsilon_time: float | None = None
        top = 0
        converged = False
        while self.steps_done < max_steps:
            self.step()
            matrix = self.generation_color_matrix()
            top = self._note_births(matrix, top, births)
            colors = matrix.sum(axis=0)
            if trace_round:
                tracer.record(
                    "round",
                    float(self.steps_done),
                    counts=[int(c) for c in colors],
                    top_gen=top,
                )
            if record_trajectory or on_step is not None:
                stats = _matrix_stats(matrix, self.n, float(self.steps_done))
                if record_trajectory:
                    trajectory.append(stats)
                if on_step is not None:
                    on_step(stats)
            if epsilon is not None and epsilon_time is None:
                if colors[plurality] >= (1.0 - epsilon) * self.n:
                    epsilon_time = float(self.steps_done)
            if int(np.count_nonzero(colors)) == 1:
                converged = True
                break
        final = self.color_counts()
        if tracer.enabled_for("end"):
            tracer.record(
                "end",
                float(self.steps_done),
                converged=converged,
                counts=[int(c) for c in final],
                eps_time=epsilon_time,
                top_gen=top,
            )
        return RunResult(
            converged=converged,
            winner=int(np.argmax(final)),
            plurality_color=plurality,
            elapsed=float(self.steps_done),
            final_color_counts=final,
            epsilon_convergence_time=epsilon_time,
            trajectory=trajectory,
            births=births,
        )

    def publish_metrics(self, metrics, result: RunResult) -> None:
        """Harvest round/convergence/fault counters (run epilogue)."""
        if metrics is None or not metrics.enabled:
            return
        from repro.engine.metrics import RATIO_BUCKETS

        metrics.counter("sync.runs").inc()
        metrics.counter("sync.rounds").inc(self.steps_done)
        if result.converged:
            metrics.counter("sync.converged_runs").inc()
        metrics.counter("sync.generation_births").inc(len(result.births))
        if self._active_fractions:
            histogram = metrics.histogram("sync.active_fraction", RATIO_BUCKETS)
            for fraction in self._active_fractions:
                histogram.observe(fraction)
        if self._round_faults is not None:
            self._round_faults.publish_metrics(metrics)


class PerNodeSynchronousSim(_SynchronousBase):
    """Exact per-node simulator of Algorithm 1.

    ``colors`` and ``generations`` are read-only snapshots in :func:`state_dtype`'s
    narrow dtype; callers must not write them: the ``(gen, col)`` tally behind ``stats``,
    the schedule and :meth:`generation_color_matrix` is rebuilt only by :meth:`step`.
    ``core`` names the round's path: ``"c"`` when the compiled extension
    loaded at construction, else ``"python"``; both give identical runs.

    Parameters
    ----------
    counts:
        Initial color counts (length ``k``); expanded and shuffled into a
        per-node assignment.
    schedule:
        Two-choices schedule (see :mod:`repro.core.schedule`).
    rng:
        Generator for sampling and the initial shuffle.
    graph:
        Communication substrate with the
        :class:`~repro.engine.network.CompleteGraph` contract; sampling
        then draws from each node's CSR neighbor list instead of the
        whole population. ``None`` (or a ``CompleteGraph``) keeps the
        original clique path bit-identically.
    round_faults:
        Optional :class:`~repro.scenarios.round_faults.RoundFaults`
        wiring consulted at the top of every step (loss/churn/straggler
        masks; rejoining nodes reset to generation 0).
    assignment:
        Optional explicit per-node color array (topology-correlated
        adversarial placement, see
        :func:`repro.scenarios.adversary.clustered_assignment`); must
        realize ``counts``. Default: ``counts`` shuffled uniformly.
    """

    def __init__(
        self,
        counts: np.ndarray,
        schedule: Schedule,
        rng: np.random.Generator,
        *,
        graph=None,
        round_faults=None,
        assignment=None,
        tracer: Tracer | None = None,
    ):
        counts = self._setup(counts, schedule, rng, tracer, round_faults)
        if graph is not None and isinstance(graph, CompleteGraph):
            graph = None  # identical semantics, keep the fast clique path
        if graph is not None:
            if len(graph) != self.n:
                raise ConfigurationError(f"graph has {len(graph)} nodes but counts sum to {self.n}")
            if graph.min_degree < 1:
                raise ConfigurationError("graph has isolated nodes; per-node sampling needs degree >= 1")
        self.graph = graph
        if assignment is None:
            colors = counts_to_assignment(counts, rng)
        else:
            colors = validate_assignment(assignment, counts)
        dtype = state_dtype(self._rows, self.k)
        self.colors = colors.astype(dtype)
        self.generations = np.zeros(self.n, dtype=dtype)
        self._recount()
        self._kernel = fastcore.load()
        #: The core that runs the rounds ("c" or "python"), chosen here once.
        self.core = "python" if self._kernel is None else "c"

    def _recount(self) -> None:
        self._tally = state_tally(self.generations, self.colors, self.k, self._rows * self.k)

    def step(self) -> None:
        self.steps_done += 1
        active = None
        if self._round_faults is not None:
            # Rejoins are reported before this round's masks: a node
            # back from an outage restarts at generation 0 (color kept)
            # and may act again immediately.
            active, rejoined = self._round_faults.begin_round(float(self.steps_done))
            if rejoined is not None:
                self.generations[rejoined] = 0
                self._recount()
            if self._track_active:
                self._active_fractions.append(
                    1.0 if active is None else float(np.count_nonzero(active)) / self.n
                )
        _, top_fraction = _top_generation(self.generation_color_matrix(), self.n)
        # Masked nodes learn nothing this round (``active``); they are
        # still sampled — a crashed or cut-off node's state remains
        # readable by its neighbors.  The new state goes to fresh arrays,
        # so a snapshot taken before this step stays as it was.
        generations = np.empty_like(self.generations)
        colors = np.empty_like(self.colors)
        pernode_round(
            self._rng,
            self.generations,
            self.colors,
            self.schedule.is_two_choices_step(self.steps_done, top_fraction),
            (generations, colors, self._tally),
            k=self.k,
            active=active,
            graph=self.graph,
            kernel=self._kernel,
        )
        self.generations, self.colors = generations, colors

    def generation_color_matrix(self) -> np.ndarray:
        return self._tally.reshape(self._rows, self.k).copy()


class AggregateSynchronousSim(_SynchronousBase):
    """Exact count-matrix (multinomial) simulator of Algorithm 1.

    State is the matrix ``M[g, c]`` of node counts per generation and
    color. Within one step, every node in group ``(g, c0)`` has the same
    outcome distribution over categories {promote to ``(i+1, c)``, adopt
    ``(j, c)``, stay}; the group outcome is therefore multinomial, drawn
    with numpy.

    Scales to ``n`` in the millions — the paper's target regime that the
    calibration notes flag as slow for per-node Python simulation.

    Parameters
    ----------
    promotion:
        ``"pair"`` (the paper's two-choices rule: both samples must share
        generation and color) or ``"single"`` (ablation: promote on a
        single sample's generation/color, which removes the bias-squaring
        amplification — the new generation merely *copies* the old bias).
    """

    def __init__(
        self,
        counts: np.ndarray,
        schedule: Schedule,
        rng: np.random.Generator,
        *,
        promotion: str = "pair",
        graph=None,
        round_faults=None,
        tracer: Tracer | None = None,
    ):
        if graph is not None and not isinstance(graph, CompleteGraph):
            raise ConfigurationError(
                "the aggregate (mean-field multinomial) engine is exact only on "
                "the complete graph; use engine='pernode' for sparse topologies"
            )
        counts = self._setup(counts, schedule, rng, tracer, round_faults)
        if promotion not in ("pair", "single"):
            raise ConfigurationError(
                f"promotion must be 'pair' or 'single', got {promotion!r}"
            )
        self.promotion = promotion
        self.matrix = np.zeros((self._rows, self.k), dtype=np.int64)
        self.matrix[0, :] = counts

    def generation_color_matrix(self) -> np.ndarray:
        return self.matrix.copy()

    def step(self) -> None:
        self.steps_done += 1
        participation = 1.0
        down = None
        if self._round_faults is not None:
            # Count seam: loss/stragglers thin every group's movement
            # probabilities (each node independently acts with
            # probability ``participation``, so group outcomes stay
            # multinomial); churn parks counts in a per-category down
            # pool whose members neither act nor move — but are still
            # part of the sampled fractions below, matching the
            # per-node engines where a crashed node's state stays
            # readable.  Rejoins reset to generation 0, color kept.
            participation, rejoined, down_flat = self._round_faults.count_round(
                float(self.steps_done), self.matrix.ravel()
            )
            if rejoined is not None:
                back = rejoined.reshape(self.matrix.shape)
                self.matrix -= back
                self.matrix[0] += back.sum(axis=0)
            if down_flat is not None:
                down = down_flat.reshape(self.matrix.shape)
            if self._track_active:
                # Mean-field active fraction: participation thinning of
                # the not-parked population (no node masks exist here).
                parked = 0 if down is None else int(down.sum())
                self._active_fractions.append(
                    participation * (self.n - parked) / self.n
                )
        two_choices_step = self.schedule.is_two_choices_step(
            self.steps_done, _mean_field_top_share(self.matrix, self.n)
        )
        new_matrix = aggregate_round(
            self.matrix,
            self.matrix,
            self.n,
            self._rng,
            two_choices_step=two_choices_step,
            promotion=self.promotion,
            participation=participation,
            down=down,
        )
        assert new_matrix.sum() == self.n, "node conservation violated"
        self.matrix = new_matrix


def run_synchronous(
    counts: np.ndarray,
    schedule: Schedule,
    rng: np.random.Generator,
    *,
    engine: str = "aggregate",
    max_steps: int = 10_000,
    epsilon: float | None = None,
    record_trajectory: bool = False,
    graph=None,
    round_faults=None,
    assignment=None,
    tracer: Tracer | None = None,
    metrics=None,
    shards: int = 1,
) -> RunResult:
    """Convenience front-end: build a simulator and run it.

    ``engine`` is ``"aggregate"`` (count-matrix, scales to huge ``n``) or
    ``"pernode"`` (literal per-node simulation). A sparse ``graph`` or an
    explicit ``assignment`` (topology-correlated placement) requires the
    per-node engine — the multinomial engine's mean-field law is only
    exact on ``K_n`` and carries no node identities. ``round_faults``
    (see :mod:`repro.scenarios.round_faults`) works on both engines.

    ``shards > 1`` fans the run out over worker processes
    (:mod:`repro.shard`); the sharded engines support the default
    scenario only, so graph/fault/placement parameters must stay unset.
    ``shards=1`` (the default) never touches the shard machinery.
    """
    if int(shards) != 1:
        if graph is not None or round_faults is not None or assignment is not None:
            raise ConfigurationError(
                "sharded synchronous runs support the complete graph without "
                "round faults or explicit placement; drop those parameters "
                "or use shards=1"
            )
        from repro.shard.synchronous import run_sharded_synchronous

        return run_sharded_synchronous(
            counts,
            schedule,
            rng,
            shards=shards,
            engine=engine,
            max_steps=max_steps,
            epsilon=epsilon,
            record_trajectory=record_trajectory,
            tracer=tracer,
            metrics=metrics,
        )
    if engine == "aggregate":
        if assignment is not None:
            raise ConfigurationError(
                "the aggregate engine is anonymous; per-node placement "
                "requires engine='pernode'"
            )
        sim: _SynchronousBase = AggregateSynchronousSim(
            counts, schedule, rng, graph=graph, round_faults=round_faults,
            tracer=tracer,
        )
    elif engine == "pernode":
        sim = PerNodeSynchronousSim(
            counts, schedule, rng, graph=graph, round_faults=round_faults,
            assignment=assignment, tracer=tracer,
        )
    else:
        raise ConfigurationError(f"unknown engine {engine!r}; use 'aggregate' or 'pernode'")
    if metrics is not None and metrics.enabled:
        sim.enable_metrics_sampling()
    result = sim.run(
        max_steps=max_steps, epsilon=epsilon, record_trajectory=record_trajectory
    )
    sim.publish_metrics(metrics, result)
    return result
