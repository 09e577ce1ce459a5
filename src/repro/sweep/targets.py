"""Registry of sweep targets — picklable simulation entry points.

A *target* is a module-level function ``fn(params, rng) -> record``:
it receives one grid point's parameter dict and a dedicated
:class:`numpy.random.Generator`, runs one simulation, and returns a
flat JSON-serializable record (scalars only). Because targets are
looked up by name and live at module level, a
:class:`~concurrent.futures.ProcessPoolExecutor` worker can execute any
run from nothing but the config dict — closures never cross the process
boundary.

Every target registers its parameter defaults alongside the function,
so ``repro sweep --list-targets`` (and :func:`target_params`) can show
the grid-able axes without reading this file.

Built-in targets cover the paper's protocols:

``synchronous``
    Algorithm 1 with a fixed or adaptive two-choices schedule
    (``gamma`` is the generation-growth fraction of Section 2.2).
``single_leader``
    Algorithms 2+3 under exponential, constant, or Gamma edge
    latencies (``latency`` selects the law — Section 5 sensitivity).
``multileader``
    Section 4's decentralized clustering + consensus pipeline.
``voter`` / ``two_choices`` / ``three_majority`` / ``undecided``
    Related-work baselines (Section 1.1).
``population``
    Sequential population protocols (Section 1.1's asynchronous
    substrate): Angluin et al.'s 3-state approximate majority or the
    4-state exact-majority protocol on the pairwise scheduler.

All targets additionally take the scenario axes from
:mod:`repro.scenarios`: ``topology`` / ``degree`` / ``clusters``
(communication substrate) and ``init`` (initial configuration,
including the topology-correlated ``clustered`` placement);
``single_leader`` — the one engine that consumes per-edge latency
multipliers — also takes ``weights``. *Every* target takes the
fault axes ``drop`` / ``drop_model`` / ``churn`` / ``churn_downtime`` /
``stragglers`` / ``straggler_slowdown``: the event-driven targets
(``single_leader``, ``multileader``) route them through the
event-stream seam (:func:`repro.scenarios.faults.build_faults`), the
round-driven targets (``synchronous``, the baselines, ``population``)
through the round-level seam
(:func:`repro.scenarios.round_faults.build_round_faults`) — one knob
vocabulary, two matched fault models. The defaults —
``topology="complete"``, no faults, ``init="biased"`` — consume no
extra randomness and leave every record byte-identical to the
pre-scenario engine (regression-guarded in ``tests/scenarios/``).

``synchronous``, ``population``, and the four baselines additionally
take ``shards`` (default 1): ``shards > 1`` fans the run out over
worker processes (:mod:`repro.shard`) and is valid only with the
default scenario (complete graph, zero fault knobs, counts-level
``init``) — :func:`validate_target_params` rejects other combinations
upfront. ``shards=1`` never touches the shard machinery, keeping the
default records byte-identical.

Examples
--------
>>> sorted(target_names())[:3]
['chaos', 'multileader', 'population']
>>> from repro.engine.rng import RngRegistry
>>> rec = get_target("synchronous")({"n": 400, "k": 2, "alpha": 2.0},
...                                 RngRegistry(1).stream("doc"))
>>> rec["plurality_won"]
True
>>> "topology" in target_params("single_leader")
True
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.params import SingleLeaderParams
from repro.core.results import RunResult
from repro.core.schedule import AdaptiveSchedule, FixedSchedule, Schedule
from repro.core.single_leader import SingleLeaderSim
from repro.core.synchronous import run_synchronous
from repro.engine.latency import ConstantLatency, GammaLatency, LatencyModel
from repro.errors import ConfigurationError
from repro.engine.network import CompleteGraph
from repro.multileader.params import MultiLeaderParams
from repro.multileader.protocol import run_multileader
from repro.scenarios.adversary import adversarial_counts, clustered_assignment
from repro.scenarios.faults import build_faults, prepare_faulty_simulator
from repro.scenarios.round_faults import build_round_faults, prepare_round_faults
from repro.scenarios.topology import build_graph
from repro.util.validation import check_fraction, check_nonnegative

__all__ = [
    "register_target",
    "get_target",
    "target_names",
    "target_params",
    "target_traceable",
    "target_metricable",
    "validate_target_params",
]

Target = Callable[[Mapping[str, Any], np.random.Generator], dict]

_TARGETS: dict[str, Target] = {}
_TARGET_DEFAULTS: dict[str, dict[str, Any]] = {}
_TARGET_VALIDATORS: dict[str, Callable[[Mapping[str, Any]], None]] = {}
_TARGET_TRACEABLE: dict[str, bool] = {}
_TARGET_METRICABLE: dict[str, bool] = {}
_TARGET_HARNESS: dict[str, bool] = {}

#: Substrate + initial-configuration axes (all targets).  The
#: ``weights`` axis is deliberately NOT here: only targets whose
#: physics actually consumes per-edge latency multipliers declare it
#: (currently ``single_leader``) — on any other target a ``weights=``
#: grid would silently run unweighted physics under a weighted label,
#: so the standard unknown-parameter rejection is the honest behavior.
_TOPOLOGY_DEFAULTS: dict[str, Any] = {
    "topology": "complete",
    "degree": 8,
    "clusters": 8,
    "init": "biased",
}

#: Fault axes (all targets; event seam or round seam per engine family).
_FAULT_DEFAULTS: dict[str, Any] = {
    "drop": 0.0,
    "drop_model": "iid",
    "churn": 0.0,
    "churn_downtime": 1.0,
    "stragglers": 0.0,
    "straggler_slowdown": 4.0,
}


def register_target(
    name: str,
    defaults: Mapping[str, Any] | None = None,
    *,
    validate: Callable[[Mapping[str, Any]], None] | None = None,
    harness: bool = False,
) -> Callable[[Target], Target]:
    """Decorator: register ``fn(params, rng) -> record`` under ``name``.

    ``defaults`` documents the target's parameters (the grid-able axes
    shown by ``repro sweep --list-targets``).  ``validate``, when given,
    receives each fully merged parameter dict at sweep-spec validation
    time and raises :class:`~repro.errors.ConfigurationError` on
    unsupported combinations — failing the sweep upfront instead of
    mid-run on worker 17 of 32.  Targets that declare a ``tracer``
    keyword are marked traceable (``--trace`` eligible).  ``harness``
    marks targets that exercise the runner rather than a protocol
    (e.g. ``chaos``) — they are exempt from the one-vocabulary
    guarantee (topology/fault axes on every protocol target).
    """

    def decorator(fn: Target) -> Target:
        if name in _TARGETS:
            raise ConfigurationError(f"sweep target {name!r} already registered")
        _TARGETS[name] = fn
        _TARGET_DEFAULTS[name] = dict(defaults or {})
        if validate is not None:
            _TARGET_VALIDATORS[name] = validate
        _TARGET_TRACEABLE[name] = "tracer" in inspect.signature(fn).parameters
        _TARGET_METRICABLE[name] = "metrics" in inspect.signature(fn).parameters
        _TARGET_HARNESS[name] = harness
        return fn

    return decorator


def get_target(name: str) -> Target:
    """Look up a target; unknown names raise with the valid list."""
    try:
        return _TARGETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep target {name!r}; available: {', '.join(sorted(_TARGETS))}"
        ) from None


def target_names() -> list[str]:
    """All registered target names, sorted."""
    return sorted(_TARGETS)


def target_params(name: str) -> dict[str, Any]:
    """A target's parameters and their defaults (the grid-able axes)."""
    get_target(name)  # raise with the standard message on unknown names
    return dict(_TARGET_DEFAULTS[name])


def target_traceable(name: str) -> bool:
    """Whether the target accepts a ``tracer`` (``--trace`` eligible)."""
    get_target(name)
    return _TARGET_TRACEABLE[name]


def target_metricable(name: str) -> bool:
    """Whether the target accepts a ``metrics`` registry (``--metrics``)."""
    get_target(name)
    return _TARGET_METRICABLE[name]


def target_is_harness(name: str) -> bool:
    """Whether the target exercises the runner rather than a protocol."""
    get_target(name)
    return _TARGET_HARNESS[name]


def validate_target_params(name: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Fail-fast check of one config: unknown keys + target-specific rules.

    Returns the fully merged parameter dict.  The sweep runner calls
    this for every grid point before launching any run, so an invalid
    combination (a typo'd axis, ``multileader`` with
    ``init='clustered'``) aborts the sweep upfront.
    """
    get_target(name)
    merged = _take(params, _TARGET_DEFAULTS[name])
    validator = _TARGET_VALIDATORS.get(name)
    if validator is not None:
        validator(merged)
    return merged


def _take(params: Mapping[str, Any], defaults: dict[str, Any]) -> dict[str, Any]:
    """Merge ``params`` over ``defaults``; unknown keys are errors.

    Typos in a grid (``latencyrate=2``) would otherwise silently run the
    default configuration 32 times.
    """
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigurationError(
            f"unknown sweep parameter(s) {unknown}; valid: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


def _record(result: RunResult, *, time_unit: float | None = None) -> dict:
    """Flatten a :class:`RunResult` into a JSON-scalar record."""
    record: dict[str, Any] = {
        "converged": bool(result.converged),
        "plurality_won": bool(result.plurality_won),
        "winner": int(result.winner),
        "elapsed": float(result.elapsed),
        "epsilon_time": (
            float(result.epsilon_convergence_time)
            if result.epsilon_convergence_time is not None
            else None
        ),
        "generations": len(result.births),
    }
    if time_unit is not None:
        record["elapsed_units"] = record["elapsed"] / time_unit
        if record["epsilon_time"] is not None:
            record["epsilon_units"] = record["epsilon_time"] / time_unit
    return record


def _latency_model(name: str, rate: float, shape: float) -> LatencyModel | None:
    """Resolve a latency-law name; ``None`` keeps the pooled exponential."""
    if name in ("exponential", "exp"):
        return None
    if name in ("constant", "const"):
        return ConstantLatency(1.0 / rate)
    if name == "gamma":
        return GammaLatency(shape=shape, rate=shape * rate)
    raise ConfigurationError(
        f"unknown latency law {name!r}; use exponential, constant, or gamma"
    )


def _scenario_graph(p: Mapping[str, Any], rng: np.random.Generator):
    """Build the run's substrate; ``None`` keeps the bit-identical K_n path."""
    if p["topology"] == "complete":
        if p.get("weights", "none") != "none":
            raise ConfigurationError(
                "weights require a sparse topology (the complete graph is homogeneous)"
            )
        return None
    return build_graph(
        p["topology"],
        p["n"],
        rng,
        degree=p["degree"],
        clusters=int(p["clusters"]),
        weights=p.get("weights", "none"),
    )


def _scenario_counts(p: Mapping[str, Any]) -> np.ndarray:
    """Initial configuration for the run (``init`` axis).

    Callers must size protocol parameters from ``counts.size``, not
    ``p["k"]`` — ``init="ramp"`` reinterprets ``k`` as an exponent and
    returns a different number of colors.
    """
    return adversarial_counts(p["init"], p["n"], p["k"], p["alpha"])


def _scenario_faults(p: Mapping[str, Any]) -> list:
    """Fault-model list from the flat fault axes (fresh per simulator)."""
    return build_faults(
        drop=p["drop"],
        drop_model=p["drop_model"],
        churn=p["churn"],
        churn_downtime=p["churn_downtime"],
        stragglers=p["stragglers"],
        straggler_slowdown=p["straggler_slowdown"],
    )


def _round_fault_models(p: Mapping[str, Any]) -> list:
    """Round-fault models from the same flat knobs (round-driven targets)."""
    return build_round_faults(
        drop=p["drop"],
        drop_model=p["drop_model"],
        churn=p["churn"],
        churn_downtime=p["churn_downtime"],
        stragglers=p["stragglers"],
        straggler_slowdown=p["straggler_slowdown"],
    )


def _scenario_round_faults(p: Mapping[str, Any], rng: np.random.Generator):
    """Round-fault wiring for the run's ``n`` nodes.

    ``None`` at all-zero knobs — the wiring then consumes no randomness
    and the engines take their pre-fault code path untouched.
    """
    return prepare_round_faults(p["n"], _round_fault_models(p), rng)


def _scenario_placement(
    p: Mapping[str, Any], graph, counts: np.ndarray, rng: np.random.Generator
):
    """Per-node placement for ``init="clustered"`` (``None`` otherwise).

    Built against the run's actual substrate; on the complete graph —
    where placement cannot matter — it degenerates to a uniform
    shuffle.
    """
    if p["init"] != "clustered":
        return None
    return clustered_assignment(
        graph if graph is not None else CompleteGraph(p["n"]), counts, rng
    )


def _positive_int(p: Mapping[str, Any], key: str) -> int:
    """``p[key]`` if it is an int >= 1; ``int()`` would truncate ``2.5``."""
    value = p[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigurationError(f"{key} must be an integer >= 1, got {value!r}")
    return int(value)


def _validate_shardable(p: Mapping[str, Any]) -> None:
    """Fail fast on ``shards > 1`` with axes the sharded engines lack.

    The sharded engines (:mod:`repro.shard`) run the default scenario
    only: complete graph, zero fault knobs, counts-level initial
    configurations. Rejecting the combinations here — at sweep-spec
    validation time — follows the same honesty rule as the ``weights``
    axis: silently running different physics under a sharded label is
    worse than an upfront error.
    """
    shards = _positive_int(p, "shards")
    if shards == 1:
        return
    problems = []
    if p["topology"] != "complete":
        problems.append(f"topology={p['topology']!r} (sharded engines run on K_n only)")
    if p["init"] == "clustered":
        problems.append(
            "init='clustered' (the sharded engines take no per-node placement)"
        )
    for knob in ("drop", "churn", "stragglers"):
        if p[knob]:
            problems.append(f"{knob}={p[knob]!r} (no fault seam in the sharded engines)")
    if int(p["n"]) < 2 * shards:
        problems.append(f"n={p['n']} (need >= 2 nodes per shard)")
    if problems:
        raise ConfigurationError(
            f"shards={shards} is incompatible with: " + "; ".join(problems)
        )


_SYNCHRONOUS_DEFAULTS: dict[str, Any] = {
    "n": 1000,
    "k": 4,
    "alpha": 2.0,
    "gamma": 0.5,
    "schedule": "fixed",
    "engine": "aggregate",
    "max_steps": 10_000,
    "epsilon": None,
    "shards": 1,
    **_TOPOLOGY_DEFAULTS,
    **_FAULT_DEFAULTS,
}


def _schedule(p: Mapping[str, Any], k: int) -> Schedule:
    """The run's two-choices schedule for ``k`` colors (``schedule`` axis)."""
    if p["schedule"] == "fixed":
        return FixedSchedule(n=p["n"], k=k, alpha0=p["alpha"], gamma=p["gamma"])
    if p["schedule"] == "adaptive":
        return AdaptiveSchedule(n=p["n"], alpha0=p["alpha"], gamma=p["gamma"])
    raise ConfigurationError(
        f"unknown schedule {p['schedule']!r}; use 'fixed' or 'adaptive'"
    )


def _validate_synchronous(p: Mapping[str, Any]) -> None:
    """Build what a run builds from its knobs, so a bad ``n``, ``gamma`` or
    fault knob fails here, before any run starts."""
    _validate_shardable(p)
    _schedule(p, int(_scenario_counts(p).size))
    _round_fault_models(p)


@register_target("synchronous", _SYNCHRONOUS_DEFAULTS, validate=_validate_synchronous)
def synchronous_target(
    params: Mapping[str, Any], rng: np.random.Generator, *, tracer=None, metrics=None
) -> dict:
    """Algorithm 1 (synchronous two-choices + propagation rounds)."""
    p = _take(params, _SYNCHRONOUS_DEFAULTS)
    _validate_shardable(p)
    graph = _scenario_graph(p, rng)
    counts = _scenario_counts(p)
    assignment = _scenario_placement(p, graph, counts, rng)
    schedule = _schedule(p, int(counts.size))
    # The mean-field multinomial engine is exact only on K_n; sparse
    # substrates require the literal per-node engine.  On the complete
    # graph placement is exchangeable — clustered degenerates to the
    # uniform shuffle — so the assignment is dropped there instead of
    # forcing the (unscalable at aggregate-n) per-node engine, the
    # same validate-then-ignore rule ``run_dynamics`` applies.
    engine = p["engine"]
    if graph is None:
        assignment = None
    elif engine == "aggregate":
        engine = "pernode"
    wiring = _scenario_round_faults(p, rng)
    result = run_synchronous(
        counts,
        schedule,
        rng,
        engine=engine,
        max_steps=p["max_steps"],
        epsilon=p["epsilon"],
        graph=graph,
        round_faults=wiring,
        assignment=assignment,
        tracer=tracer,
        metrics=metrics,
        shards=int(p["shards"]),
    )
    record = _record(result)
    if engine != p["engine"]:
        # Boolean, not a string: aggregation only keeps numeric fields,
        # so a string marker would vanish from sweep tables and the
        # substitution would stay invisible exactly where it matters.
        record["engine_substituted"] = True
        record["engine_effective"] = engine
    if wiring is not None:
        record.update(wiring.info())
    return record


_SINGLE_LEADER_DEFAULTS: dict[str, Any] = {
    "n": 1000,
    "k": 4,
    "alpha": 2.0,
    "gamma": 0.5,
    "latency_rate": 1.0,
    "latency": "exponential",
    "latency_shape": 2.0,
    "max_time": 4000.0,
    "epsilon": None,
    # The only target whose engine consumes per-edge latency
    # multipliers (scaled channel-establishment delays).
    "weights": "none",
    **_TOPOLOGY_DEFAULTS,
    **_FAULT_DEFAULTS,
}


def _validate_run_budget(p: Mapping[str, Any]) -> None:
    """Fail fast on a time budget below 0 or an ``epsilon`` outside ``(0, 1)``.

    A negative budget would move the clock backwards, and an
    ``epsilon`` outside the open interval records its time at the first
    event (``>= 1``) or never (``<= 0``).
    """
    for key in ("clustering_max_time", "max_time"):
        if key in p:
            check_nonnegative(key, p[key])
    if p["epsilon"] is not None:
        check_fraction("epsilon", p["epsilon"])


def _single_leader_params(p: Mapping[str, Any], k: int) -> SingleLeaderParams:
    # k is the counts' size: init="ramp" reinterprets k (see _scenario_counts).
    return SingleLeaderParams(
        n=p["n"],
        k=k,
        alpha0=p["alpha"],
        latency_rate=p["latency_rate"],
        gen_size_fraction=p["gamma"],
    )


def _validate_single_leader(p: Mapping[str, Any]) -> None:
    """The budgets, then what a run builds from its knobs (parameters,
    latency law, fault models), so a bad knob fails before any run starts."""
    _validate_run_budget(p)
    _single_leader_params(p, int(_scenario_counts(p).size))
    _latency_model(p["latency"], p["latency_rate"], p["latency_shape"])
    _scenario_faults(p)


@register_target("single_leader", _SINGLE_LEADER_DEFAULTS, validate=_validate_single_leader)
def single_leader_target(
    params: Mapping[str, Any], rng: np.random.Generator, *, tracer=None, metrics=None
) -> dict:
    """Algorithms 2+3 (asynchronous single-leader protocol)."""
    p = _take(params, _SINGLE_LEADER_DEFAULTS)
    graph = _scenario_graph(p, rng)
    counts = _scenario_counts(p)
    assignment = _scenario_placement(p, graph, counts, rng)
    sim_params = _single_leader_params(p, int(counts.size))
    model = _latency_model(p["latency"], p["latency_rate"], p["latency_shape"])
    # Pre-wrapped simulator: even the construction-time initial ticks
    # flow through the fault transforms (no churn-guard escape).
    simulator, wiring = prepare_faulty_simulator(
        p["n"], _scenario_faults(p), rng, tracer=tracer
    )
    sim = SingleLeaderSim(
        sim_params, counts, rng, latency_model=model, graph=graph, simulator=simulator,
        assignment=assignment,
    )
    if wiring is not None:
        wiring.bind(sim)
    result = sim.run(max_time=p["max_time"], epsilon=p["epsilon"])
    record = _record(result, time_unit=sim_params.time_unit)
    record["events"] = int(sim.sim.events_executed)
    if wiring is not None:
        record.update(wiring.info())
    if metrics is not None and metrics.enabled:
        sim.publish_metrics(metrics)
        if wiring is not None:
            wiring.publish_metrics(metrics)
    return record


_MULTILEADER_DEFAULTS: dict[str, Any] = {
    "n": 1000,
    "k": 4,
    "alpha": 2.0,
    "latency_rate": 1.0,
    "clustering_max_time": 500.0,
    "max_time": 3000.0,
    "epsilon": None,
    **_TOPOLOGY_DEFAULTS,
    **_FAULT_DEFAULTS,
}


def _reject_multileader_clustered(p: Mapping[str, Any]) -> None:
    """Documented won't-fix: no per-node placement through the pipeline.

    The multileader pipeline rebuilds its population from counts
    between the clustering and consensus phases (the consensus phase
    re-draws node colors), so a per-node ``init='clustered'`` placement
    cannot survive the phase boundary.  Rather than silently running a
    different start, the combination is rejected — and rejected at
    sweep-spec validation time, before any run launches.
    """
    if p["init"] == "clustered":
        raise ConfigurationError(
            "the multileader pipeline rebuilds its population between phases "
            "and does not support per-node placement; use init='biased' or "
            "the single_leader/synchronous targets for clustered starts"
        )


def _multileader_params(p: Mapping[str, Any], k: int) -> MultiLeaderParams:
    return MultiLeaderParams(
        n=p["n"], k=k, alpha0=p["alpha"], latency_rate=p["latency_rate"]
    )


def _validate_multileader(p: Mapping[str, Any]) -> None:
    """As :func:`_validate_single_leader`, after the placement check."""
    _reject_multileader_clustered(p)
    _validate_run_budget(p)
    _multileader_params(p, int(_scenario_counts(p).size))
    _scenario_faults(p)


@register_target("multileader", _MULTILEADER_DEFAULTS, validate=_validate_multileader)
def multileader_target(
    params: Mapping[str, Any], rng: np.random.Generator, *, tracer=None, metrics=None
) -> dict:
    """Section 4's decentralized pipeline: clustering then consensus."""
    p = _take(params, _MULTILEADER_DEFAULTS)
    _reject_multileader_clustered(p)
    graph = _scenario_graph(p, rng)
    counts = _scenario_counts(p)
    sim_params = _multileader_params(p, int(counts.size))
    wirings = []
    pending = []
    phases = []

    def prepare():
        # Fresh fault-model instances per phase simulator (they are
        # stateful); no-op when every fault axis sits at its default.
        # Note each phase draws its own straggler subset — the phases
        # are separate simulators over separate event streams.
        simulator, wiring = prepare_faulty_simulator(
            sim_params.n, _scenario_faults(p), rng, tracer=tracer
        )
        pending.append(wiring)
        return simulator

    def instrument(sim_obj) -> None:
        phases.append(sim_obj)
        wiring = pending.pop()
        if wiring is not None:
            wiring.bind(sim_obj)
            wirings.append(wiring)

    result = run_multileader(
        sim_params,
        counts,
        rng,
        clustering_max_time=p["clustering_max_time"],
        max_time=p["max_time"],
        epsilon=p["epsilon"],
        graph=graph,
        instrument=instrument,
        prepare=prepare,
    )
    record = _record(result, time_unit=sim_params.time_unit)
    record["clusters"] = int(result.info.get("clusters", 0))
    for wiring in wirings:
        for key, value in wiring.info().items():
            record[key] = record.get(key, 0.0) + value
    if metrics is not None and metrics.enabled:
        # Both phase simulators (clustering, consensus) harvest their
        # tick and engine counters; the fault seams add theirs.
        metrics.counter("protocol.runs.multileader").inc()
        for phase in phases:
            phase.publish_metrics(metrics)
        for wiring in wirings:
            wiring.publish_metrics(metrics)
    return record


_BASELINE_DEFAULTS: dict[str, Any] = {
    "n": 1000,
    "k": 4,
    "alpha": 2.0,
    "max_rounds": 100_000,
    "epsilon": None,
    "shards": 1,
    **_TOPOLOGY_DEFAULTS,
    **_FAULT_DEFAULTS,
}


def _validate_baseline(p: Mapping[str, Any]) -> None:
    """Build what a run builds from its knobs, so a bad ``n`` or fault
    knob fails here, before any run starts."""
    _validate_shardable(p)
    _scenario_counts(p)
    _round_fault_models(p)


def _baseline_target(dynamics_factory: Callable[[int], Any]) -> Target:
    def run_target(
        params: Mapping[str, Any], rng: np.random.Generator, *, tracer=None,
        metrics=None,
    ) -> dict:
        from repro.baselines.base import run_dynamics

        p = _take(params, _BASELINE_DEFAULTS)
        _validate_shardable(p)
        graph = _scenario_graph(p, rng)
        counts = _scenario_counts(p)
        assignment = _scenario_placement(p, graph, counts, rng)
        wiring = _scenario_round_faults(p, rng)
        result = run_dynamics(
            dynamics_factory(p["k"]),
            counts,
            rng,
            max_rounds=p["max_rounds"],
            epsilon=p["epsilon"],
            graph=graph,
            round_faults=wiring,
            assignment=assignment,
            tracer=tracer,
            metrics=metrics,
            shards=int(p["shards"]),
        )
        record = _record(result)
        if wiring is not None:
            record.update(wiring.info())
        return record

    return run_target


def _register_baselines() -> None:
    from repro.baselines.three_majority import ThreeMajority
    from repro.baselines.two_choices import TwoChoices
    from repro.baselines.undecided import UndecidedStateDynamics
    from repro.baselines.voter import PullVoting

    for name, factory in [
        ("voter", lambda k: PullVoting()),
        ("two_choices", lambda k: TwoChoices()),
        ("three_majority", lambda k: ThreeMajority()),
        ("undecided", lambda k: UndecidedStateDynamics()),
    ]:
        register_target(name, _BASELINE_DEFAULTS, validate=_validate_baseline)(
            _baseline_target(factory)
        )


_register_baselines()


_POPULATION_DEFAULTS: dict[str, Any] = {
    "n": 1000,
    "k": 2,
    "alpha": 2.0,
    "protocol": "three_state",
    "max_interactions": None,
    "check_every": 64,
    "shards": 1,
    **_TOPOLOGY_DEFAULTS,
    **_FAULT_DEFAULTS,
}


def _population_protocol(p: Mapping[str, Any]):
    """The run's population protocol (``protocol`` axis)."""
    from repro.baselines.population import FourStateExactMajority, ThreeStateMajority

    if p["protocol"] == "three_state":
        return ThreeStateMajority()
    if p["protocol"] == "four_state":
        return FourStateExactMajority()
    raise ConfigurationError(
        f"unknown population protocol {p['protocol']!r}; "
        "use 'three_state' or 'four_state'"
    )


def _validate_population(p: Mapping[str, Any]) -> None:
    """Build what a run builds from its knobs, so a bad ``protocol``, ``k``,
    ``check_every`` or fault knob fails here, before any run starts."""
    _validate_shardable(p)
    _positive_int(p, "check_every")
    _population_protocol(p).initial_state(_scenario_counts(p))
    _round_fault_models(p)


@register_target("population", _POPULATION_DEFAULTS, validate=_validate_population)
def population_target(
    params: Mapping[str, Any], rng: np.random.Generator, *, tracer=None, metrics=None
) -> dict:
    """Sequential population protocols on the pairwise scheduler.

    ``protocol`` selects Angluin et al.'s 3-state approximate majority
    (``"three_state"``) or the 4-state exact-majority protocol
    (``"four_state"``); both are two-opinion protocols, so ``k`` must
    stay 2.  The fault knobs flow through the round-level seam at
    interaction-block granularity; ``elapsed`` reports *parallel time*
    (interactions / n), the standard normalization.
    """
    from repro.baselines.population import PairwiseScheduler

    p = _take(params, _POPULATION_DEFAULTS)
    _validate_population(p)
    protocol = _population_protocol(p)
    graph = _scenario_graph(p, rng)
    counts = _scenario_counts(p)
    assignment = _scenario_placement(p, graph, counts, rng)
    wiring = _scenario_round_faults(p, rng)
    result = PairwiseScheduler(protocol).run(
        counts,
        rng,
        max_interactions=p["max_interactions"],
        check_every=int(p["check_every"]),
        graph=graph,
        round_faults=wiring,
        assignment=assignment,
        tracer=tracer,
        metrics=metrics,
        shards=int(p["shards"]),
    )
    plurality = int(np.argmax(counts))
    record: dict[str, Any] = {
        "converged": bool(result.converged),
        "plurality_won": bool(result.winner == plurality),
        "winner": -1 if result.winner is None else int(result.winner),
        "interactions": int(result.interactions),
        "elapsed": float(result.parallel_time),
        "epsilon_time": None,
    }
    if wiring is not None:
        record.update(wiring.info())
    return record


_CHAOS_MODES = ("ok", "raise", "flaky_raise", "flaky_kill", "flaky_hang")

_CHAOS_DEFAULTS: dict[str, Any] = {
    "mode": "ok",
    "marker_dir": "",
    "hang_seconds": 30.0,
    "work": 0,
}


def _validate_chaos(p: Mapping[str, Any]) -> None:
    if p["mode"] not in _CHAOS_MODES:
        raise ConfigurationError(
            f"unknown chaos mode {p['mode']!r}; valid: {', '.join(_CHAOS_MODES)}"
        )
    if p["mode"].startswith("flaky_") and not p["marker_dir"]:
        raise ConfigurationError(
            f"chaos mode {p['mode']!r} needs marker_dir= (the fault fires only "
            "on attempts made before the marker file exists)"
        )


@register_target("chaos", _CHAOS_DEFAULTS, validate=_validate_chaos, harness=True)
def chaos_target(params: Mapping[str, Any], rng: np.random.Generator) -> dict:
    """Fault-injection target for the supervision layer's own tests.

    This target exercises the *runner*, not a protocol: ``mode``
    selects how the run misbehaves. ``"ok"`` returns a record drawn
    from the run's RNG substream; ``"raise"`` raises on every attempt
    (a deterministic simulation bug — the supervisor must record it as
    permanently failed). The ``flaky_*`` modes misbehave only while
    their marker file ``<marker_dir>/<mode>-<work>.marker`` is absent
    — they *create the marker first*, so a retry of the same config
    succeeds: ``flaky_raise`` raises once, ``flaky_kill`` SIGKILLs its
    own worker process once, ``flaky_hang`` sleeps ``hang_seconds``
    once (past any sane ``--run-timeout``). ``work`` is an inert label
    that distinguishes grid points (separate marker files, separate
    RNG substreams).

    The record's ``value`` is the first draw from the run's substream
    and nothing else consumes randomness, so a retried run is
    byte-identical to an unfaulted first attempt — the chaos tests pin
    exactly that.
    """
    import os
    import signal
    import time as _time
    from pathlib import Path

    p = _take(params, _CHAOS_DEFAULTS)
    _validate_chaos(p)
    mode = p["mode"]
    if mode == "raise":
        raise RuntimeError("chaos: configured to fail every attempt")
    if mode.startswith("flaky_"):
        marker = Path(p["marker_dir"]) / f"{mode}-{p['work']}.marker"
        if not marker.exists():
            # Marker before mayhem: the *next* attempt must find it even
            # when this one dies un-cleanly a line later.
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
            if mode == "flaky_raise":
                raise RuntimeError("chaos: first-attempt failure")
            if mode == "flaky_kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if mode == "flaky_hang":
                _time.sleep(float(p["hang_seconds"]))
    return {"value": float(rng.random()), "work": int(p["work"]), "converged": True}
