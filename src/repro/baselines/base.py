"""Shared interface and runner for synchronous opinion dynamics.

All baselines from the paper's related-work section (Section 1.1) are
*anonymous* dynamics: a node's next opinion depends only on the opinions
of uniformly sampled nodes. Their population count vector therefore
evolves as an exact multinomial process, which
:class:`OpinionDynamics` subclasses express via
:meth:`OpinionDynamics.transition_probabilities`: for each current
opinion (group) the distribution over next opinions. The shared
:func:`run_dynamics` runner draws those multinomials and reports the
same :class:`~repro.core.results.RunResult` the paper's protocol
runners use, so head-to-head experiments are one loop. That loop is
also the sharded runner's (:mod:`repro.shard.dynamics`).

The multinomial shortcut is exact only on the complete graph. On a
sparse substrate (``graph=`` parameter) :func:`run_dynamics` switches
to a literal per-node engine: each node samples
:attr:`OpinionDynamics.sample_size` neighbors from its CSR adjacency
and applies the dynamic's local rule
(:meth:`OpinionDynamics.local_update_batch`) — fully vectorized per
round, and distributionally identical to the multinomial path when the
graph happens to be dense.

Both paths consult an optional round-level fault wiring
(:class:`repro.scenarios.round_faults.RoundFaults`): masked nodes keep
their state for the round (their state stays readable as a contact),
crashed nodes park in a down pool and rejoin through the dynamic's
:meth:`OpinionDynamics.rejoin_states` /
:meth:`OpinionDynamics.rejoin_counts` reset hook. With
``round_faults=None`` every round consumes exactly the pre-fault
randomness.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import RunResult, StepStats
from repro.engine.network import CompleteGraph
from repro.engine.tracing import NULL_TRACER
from repro.errors import ConfigurationError
from repro.workloads.bias import multiplicative_bias, plurality_color, validate_counts
from repro.workloads.opinions import validate_assignment

__all__ = ["OpinionDynamics", "run_dynamics"]


class OpinionDynamics:
    """One synchronous-round opinion dynamic on the complete graph.

    Subclasses implement :meth:`transition_probabilities`. ``states``
    may exceed the number of opinions (e.g. the undecided-state dynamic
    appends an *undecided* state); :meth:`project_colors` maps the
    internal state-count vector back to opinion counts.
    """

    #: Human-readable protocol name (used in tables).
    name: str = "dynamics"

    #: Uniform contacts one node samples per round (graph-restricted path).
    sample_size: int = 1

    def initial_state(self, counts: np.ndarray) -> np.ndarray:
        """Internal state-count vector for initial opinion ``counts``."""
        return validate_counts(counts).copy()

    def project_colors(self, state: np.ndarray) -> np.ndarray:
        """Opinion counts visible in an internal state vector."""
        return state

    def transition_probabilities(self, state: np.ndarray) -> np.ndarray:
        """Row-stochastic matrix ``P[s, s']``: next-state law per group.

        ``P[s]`` is the outcome distribution of one node currently in
        state ``s`` given the population state (fractions of ``state``).
        """
        raise NotImplementedError

    def is_converged(self, state: np.ndarray) -> bool:
        """Default: a single opinion survives."""
        return int(np.count_nonzero(self.project_colors(state))) == 1

    def rejoin_states(self, states: np.ndarray) -> np.ndarray:
        """Internal states of rejoining nodes after a churn reset.

        Default: identity — the anonymous dynamics carry no auxiliary
        protocol state beyond the opinion itself, so a rejoining node
        simply resumes with the opinion it held. Dynamics with derived
        state override this (the undecided-state dynamic rejoins
        *undecided*, the self-stabilizing reset).
        """
        return states

    def rejoin_counts(self, counts: np.ndarray) -> np.ndarray:
        """Count-level twin of :meth:`rejoin_states` (multinomial engine).

        ``counts`` are the rejoining nodes per internal state; the
        return value redistributes them post-reset (identity by
        default).
        """
        return counts

    def local_update_batch(
        self, own: np.ndarray, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-node rule: next internal state from the sampled states.

        ``own`` is the length-``n`` current state per node and
        ``samples`` the ``(n, sample_size)`` matrix of sampled contact
        states; returns the length-``n`` next-state array. Only needed
        for graph-restricted simulation — dynamics that do not override
        it remain complete-graph (multinomial) only.
        """
        raise ConfigurationError(
            f"{self.name} does not define a local update rule; "
            "it can only run on the complete graph"
        )

    def step(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One exact synchronous round: a multinomial per state group."""
        return _multinomial_round(self, state, rng)


class _GraphDynamicsEngine:
    """Literal per-node engine for dynamics on a sparse graph.

    Holds one internal state per node; each round samples
    ``dynamics.sample_size`` CSR neighbors per node (batched uniform
    draws, no per-call ``rng.choice``) and applies the local rule
    simultaneously across the population.
    """

    def __init__(
        self, dynamics: OpinionDynamics, counts: np.ndarray, graph, rng, *, assignment=None
    ):
        state_counts = dynamics.initial_state(counts)
        self.states = int(state_counts.size)
        self.n = int(state_counts.sum())
        if len(graph) != self.n:
            raise ConfigurationError(
                f"graph has {len(graph)} nodes but counts sum to {self.n}"
            )
        if graph.min_degree < 1:
            raise ConfigurationError("graph has isolated nodes; dynamics need degree >= 1")
        self._graph = graph
        self._dynamics = dynamics
        if assignment is None:
            self.node_state = np.repeat(np.arange(self.states), state_counts)
            rng.shuffle(self.node_state)
        else:
            # Every dynamic in the suite maps opinion i to internal
            # state i at initialization (auxiliary states start empty),
            # so an opinion assignment is a valid initial state array.
            self.node_state = validate_assignment(assignment, counts)

    def step(
        self, rng: np.random.Generator, *, round_faults=None, now: float = 0.0
    ) -> np.ndarray:
        """One synchronous round; returns the new state-count vector."""
        dynamics = self._dynamics
        active = None
        if round_faults is not None:
            active, rejoined = round_faults.begin_round(now)
            if rejoined is not None:
                self.node_state[rejoined] = dynamics.rejoin_states(
                    self.node_state[rejoined]
                )
        samples = np.empty((self.n, dynamics.sample_size), dtype=np.int64)
        for column in range(dynamics.sample_size):
            samples[:, column] = self.node_state[self._graph.sample_per_node(rng)]
        updated = dynamics.local_update_batch(self.node_state, samples, rng)
        if active is not None:
            # Masked nodes keep their state; they were still sampled
            # above (a crashed node's opinion stays readable).
            updated = np.where(active, updated, self.node_state)
        self.node_state = updated
        return np.bincount(self.node_state, minlength=self.states).astype(np.int64)


def _multinomial_round(
    dynamics: OpinionDynamics,
    state: np.ndarray,
    rng: np.random.Generator,
    *,
    participation: float = 1.0,
    down: np.ndarray | None = None,
    probabilities_state: np.ndarray | None = None,
) -> np.ndarray:
    """One multinomial round, optionally thinned and partially frozen.

    The single copy of the row clip/validate/normalize loop both count
    paths share: :meth:`OpinionDynamics.step` calls it bare (the
    ``participation=1.0``/``down=None`` path consumes the generator
    exactly like the pre-fault implementation), and the faulty path
    adds participation thinning (each group's movement probabilities
    scaled by ``participation``, the remainder folded into staying)
    plus per-category frozen (churned-down) counts that do not act.

    ``probabilities_state`` separates the population the transition
    *probabilities* are computed from (contacts come from everyone) from
    the counts that actually move. Default ``None`` uses ``state`` for
    both — the unsharded law. The sharded count engine passes the
    cross-shard sum: each shard then draws an independent multinomial
    with the shared global probabilities, and the sum of those draws is
    exactly the global multinomial, so the sharded round is
    distribution-identical.
    """
    matrix = dynamics.transition_probabilities(
        state if probabilities_state is None else probabilities_state
    )
    if matrix.shape != (state.size, state.size):
        raise ConfigurationError(
            f"{dynamics.name}: transition matrix shape {matrix.shape} "
            f"does not match state size {state.size}"
        )
    new_state = np.zeros_like(state)
    for group in np.nonzero(state)[0]:
        # Clip float round-off (rows are built from complements and can
        # dip a few ulp below zero) before the exactness check.
        row = np.clip(matrix[group].astype(float), 0.0, None)
        total = float(row.sum())
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConfigurationError(
                f"{dynamics.name}: transition row {group} sums to {total}, expected 1"
            )
        row = row / total
        if participation < 1.0:
            row = row * participation
            row[group] += 1.0 - participation
        count = int(state[group])
        frozen = 0 if down is None else min(int(down[group]), count)
        new_state += rng.multinomial(count - frozen, row)
        new_state[group] += frozen
    return new_state


def _faulty_count_step(
    dynamics: OpinionDynamics,
    state: np.ndarray,
    rng: np.random.Generator,
    round_faults,
    now: float,
) -> np.ndarray:
    """One multinomial round under round-level faults.

    Applies the count seam
    (:meth:`repro.scenarios.round_faults.RoundFaults.count_round`):
    rejoining counts are redistributed through
    :meth:`OpinionDynamics.rejoin_counts`, then the shared
    :func:`_multinomial_round` runs with the seam's participation
    probability and down pool.
    """
    participation, rejoined, down = round_faults.count_round(now, np.asarray(state))
    if rejoined is not None and rejoined.any():
        state = state - rejoined + dynamics.rejoin_counts(rejoined)
    return _multinomial_round(
        dynamics, state, rng, participation=participation, down=down
    )


def run_dynamics(
    dynamics: OpinionDynamics,
    counts: np.ndarray,
    rng: np.random.Generator,
    *,
    max_rounds: int = 100_000,
    epsilon: float | None = None,
    record_trajectory: bool = False,
    graph=None,
    round_faults=None,
    assignment=None,
    tracer=None,
    metrics=None,
    shards: int = 1,
) -> RunResult:
    """Run ``dynamics`` from initial opinion ``counts`` to consensus.

    Mirrors :func:`repro.core.synchronous.run_synchronous`'s contract:
    never raises on non-convergence — inspect ``result.converged``.
    ``graph=None`` (or a :class:`~repro.engine.network.CompleteGraph`)
    uses the exact multinomial engine; a sparse graph switches to the
    per-node engine driven by the dynamic's local rule.
    ``round_faults`` applies per-round loss/churn/straggler masks on
    either path (see :mod:`repro.scenarios.round_faults`).
    ``assignment`` fixes the per-node placement on the per-node path
    (topology-correlated starts); the multinomial engine is anonymous,
    so on ``K_n`` — where placement cannot matter — it is validated and
    then ignored.

    ``shards > 1`` fans the multinomial rounds out over worker
    processes (:mod:`repro.shard`, distribution-identical law); that
    path supports the default scenario only. ``shards=1`` (the
    default) never touches the shard machinery.
    """
    loop = dict(
        max_rounds=max_rounds, epsilon=epsilon, record_trajectory=record_trajectory,
        tracer=tracer, metrics=metrics,
    )
    if int(shards) != 1:
        if graph is not None or round_faults is not None or assignment is not None:
            raise ConfigurationError(
                "sharded dynamics support the complete graph without round "
                "faults or explicit placement; drop those parameters or use "
                "shards=1"
            )
        from repro.shard.dynamics import run_sharded_dynamics

        return run_sharded_dynamics(dynamics, counts, rng, shards=shards, **loop)
    counts = validate_counts(counts)
    if graph is not None and isinstance(graph, CompleteGraph):
        graph = None  # identical semantics, keep the exact multinomial path
    if assignment is not None and graph is None:
        validate_assignment(assignment, counts)  # anonymous engine: check, then ignore
    engine = (
        None
        if graph is None
        else _GraphDynamicsEngine(dynamics, counts, graph, rng, assignment=assignment)
    )
    return _run_rounds(dynamics, counts, rng, engine, round_faults=round_faults, **loop)


def _run_rounds(
    dynamics: OpinionDynamics, counts: np.ndarray, rng: np.random.Generator, engine,
    *, max_rounds, epsilon, record_trajectory, round_faults=None, tracer=None,
    metrics=None,
) -> RunResult:
    """The round loop of every opinion-dynamics run, sharded or not.

    ``engine=None`` runs the multinomial round in-process; otherwise a
    round is ``engine.step(rng, round_faults=..., now=...)``, returning
    the new state-count vector (the graph engine above, or the shard
    stepper of :mod:`repro.shard.dynamics`).
    """
    n = int(counts.sum())
    plurality = plurality_color(counts)
    state = dynamics.initial_state(counts)
    if tracer is None:
        tracer = NULL_TRACER
    elif round_faults is not None:
        round_faults.tracer = tracer
    trace_round = tracer.enabled_for("round")
    if tracer.enabled_for("run"):
        tracer.record(
            "run", 0.0, protocol=f"dynamics:{dynamics.name}",
            n=n, k=int(counts.size), counts=[int(c) for c in counts],
        )
    trajectory: list[StepStats] = []
    epsilon_time: float | None = None
    rounds = 0
    converged = False
    while rounds < max_rounds:
        if engine is not None:
            state = engine.step(rng, round_faults=round_faults, now=float(rounds + 1))
        elif round_faults is not None:
            state = _faulty_count_step(dynamics, state, rng, round_faults, float(rounds + 1))
        else:
            state = dynamics.step(state, rng)
        rounds += 1
        colors = dynamics.project_colors(state)
        if trace_round:
            tracer.record(
                "round", float(rounds), counts=[int(c) for c in colors],
                top_gen=0,
            )
        if record_trajectory:
            trajectory.append(
                StepStats(
                    time=float(rounds),
                    top_generation=0,
                    top_generation_fraction=1.0,
                    plurality_fraction=float(colors.max()) / n,
                    bias=multiplicative_bias(colors) if colors.sum() else 1.0,
                )
            )
        if epsilon is not None and epsilon_time is None:
            if colors[plurality] >= (1.0 - epsilon) * n:
                epsilon_time = float(rounds)
        if dynamics.is_converged(state):
            converged = True
            break
    final = dynamics.project_colors(state)
    if tracer.enabled_for("end"):
        tracer.record(
            "end", float(rounds), converged=converged,
            counts=[int(c) for c in final], eps_time=epsilon_time,
        )
    if metrics is not None and metrics.enabled:
        metrics.counter(f"dynamics.runs.{dynamics.name}").inc()
        metrics.counter("dynamics.rounds").inc(rounds)
        if converged:
            metrics.counter("dynamics.converged_runs").inc()
        if round_faults is not None:
            round_faults.publish_metrics(metrics)
    return RunResult(
        converged=converged,
        winner=int(np.argmax(final)),
        plurality_color=plurality,
        elapsed=float(rounds),
        final_color_counts=np.asarray(final, dtype=np.int64),
        epsilon_convergence_time=epsilon_time,
        trajectory=trajectory,
    )
