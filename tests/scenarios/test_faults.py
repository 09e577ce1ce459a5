"""Fault-injection behavior on real protocol simulators.

The behavioral classes (injection, churn, prepared simulator) run at
pool block sizes 1, 2, and the production default — block 1 collapses
the tick window to the event-granular reference sequence and block 2
sits exactly on the window-collapse boundary, the two places a
fault/batching interaction bug would hide.
"""

from __future__ import annotations

import math

import pytest

import repro.engine.rng as engine_rng
from repro.core.params import SingleLeaderParams
from repro.core.single_leader import SingleLeaderSim
from repro.engine.rng import RngRegistry
from repro.engine.simulator import DEFAULT_ENGINE
from repro.errors import ConfigurationError
from repro.scenarios.faults import (
    CrashAtTimes,
    CrashChurn,
    GilbertElliottDrop,
    IidDrop,
    Stragglers,
    build_faults,
    inject_faults,
    prepare_faulty_simulator,
)
from repro.workloads.opinions import biased_counts


@pytest.fixture(
    params=[1, 2, None], ids=[f"{DEFAULT_ENGINE}-block{b}" for b in ("1", "2", "D")]
)
def pool_block(request, monkeypatch):
    """Pool-block matrix for the behavioral fault tests (D = default)."""
    if request.param is not None:
        monkeypatch.setattr(engine_rng, "DEFAULT_BLOCK", request.param)
    return request.param


def _sim(seed: int, n: int = 200, k: int = 3) -> SingleLeaderSim:
    rngs = RngRegistry(seed)
    params = SingleLeaderParams(n=n, k=k, alpha0=2.0)
    return SingleLeaderSim(params, biased_counts(n, k, 2.0), rngs.stream("sim"))


@pytest.mark.usefixtures("pool_block")
class TestInjection:
    def test_empty_fault_list_is_identity(self, rngs):
        baseline = _sim(1)
        reference = baseline.run(max_time=600.0)
        instrumented = _sim(1)
        assert inject_faults(instrumented, [], rngs.stream("faults")) is None
        result = instrumented.run(max_time=600.0)
        assert result.elapsed == reference.elapsed
        assert result.final_color_counts.tolist() == reference.final_color_counts.tolist()
        assert instrumented.sim.events_executed == baseline.sim.events_executed

    def test_iid_drop_loses_leader_signals(self, rngs):
        clean = _sim(2)
        clean.run(max_time=100.0)
        lossy = _sim(2)
        wiring = inject_faults(lossy, [IidDrop(0.5)], rngs.stream("faults"))
        lossy.run(max_time=100.0)
        info = wiring.info()
        assert info["fault_dropped_messages"] > 0
        assert info["fault_dropped_exchanges"] > 0
        # Half the 0-signals never arrive, so the leader counts far
        # fewer than in the clean run over the same time span.
        assert lossy.leader.zero_signals < 0.75 * clean.leader.zero_signals

    def test_dropped_exchange_unlocks_node(self, rngs):
        sim = _sim(3, n=100)
        inject_faults(sim, [IidDrop(0.9)], rngs.stream("faults"))
        sim.run(max_time=50.0)
        # With 90% loss almost every cycle aborts; if aborted cycles
        # leaked locks the whole population would be locked and good
        # ticks would stop early.
        assert sim.locked.sum() < sim.n
        assert sim.good_ticks > sim.n

    def test_bursty_drop_records_bursts(self, rngs):
        sim = _sim(4, n=100)
        wiring = inject_faults(
            sim, [GilbertElliottDrop(drop_bad=0.9, to_bad=0.1, to_good=0.5)], rngs.stream("f")
        )
        sim.run(max_time=100.0)
        info = wiring.info()
        assert info["fault_ge_bursts"] > 0
        assert info["fault_ge_dropped"] > 0

    def test_stragglers_slow_the_run(self, rngs):
        fast = _sim(5)
        fast_result = fast.run(max_time=2000.0, epsilon=0.1)
        slow = _sim(5)
        wiring = inject_faults(slow, [Stragglers(0.5, slowdown=20.0)], rngs.stream("f"))
        slow_result = slow.run(max_time=2000.0, epsilon=0.1)
        assert wiring.faults[0].count > 0
        assert slow_result.epsilon_convergence_time is None or (
            fast_result.epsilon_convergence_time is not None
            and slow_result.epsilon_convergence_time > fast_result.epsilon_convergence_time
        )


@pytest.mark.usefixtures("pool_block")
class TestChurn:
    def test_poisson_churn_crashes_and_rejoins(self, rngs):
        sim = _sim(6)
        churn = CrashChurn(2.0, mean_downtime=2.0)
        wiring = inject_faults(sim, [churn], rngs.stream("f"))
        result = sim.run(max_time=300.0)
        assert churn.crashes > 0
        assert churn.rejoins > 0
        info = wiring.info()
        assert info["fault_crashes"] == churn.crashes
        # The run must still terminate (converge or budget) despite churn.
        assert result.elapsed <= 300.0

    def test_rejoin_resets_generation(self, rngs):
        sim = _sim(7, n=100)
        # Crash node 5 once generations exist; stop just after rejoin so
        # the node cannot have re-adopted a generation yet.
        fault = CrashAtTimes({5: 30.0}, downtime=5.0)
        inject_faults(sim, [fault], rngs.stream("f"))
        sim.run(max_time=35.01)
        assert fault.crashes == 1
        assert fault.rejoins == 1
        assert sim.gens[5] == 0
        assert sim.gens.max() > 0  # the rest of the population moved on

    def test_permanent_crash_silences_node(self, rngs):
        sim = _sim(8, n=100)
        fault = CrashAtTimes({0: 0.5, 1: 0.5})
        wiring = inject_faults(sim, [fault], rngs.stream("f"))
        sim.run(max_time=60.0)
        assert fault.crashes == 2
        assert fault.rejoins == 0
        assert fault.crashed_until(0) == math.inf
        # Crashed nodes' events were suppressed, not executed; their
        # clocks die as dead ticks, not as dropped exchanges.
        assert wiring.dead_ticks > 0
        assert wiring.dropped_exchanges <= 2  # at most the in-flight cycles

    def test_crash_schedule_validates_nodes(self, rngs):
        sim = _sim(9, n=50)
        with pytest.raises(ConfigurationError):
            inject_faults(sim, [CrashAtTimes({999: 1.0})], rngs.stream("f"))


class TestBuildFaults:
    def test_zero_knobs_build_nothing(self):
        assert build_faults() == []

    def test_iid_and_bursty_and_churn(self):
        faults = build_faults(drop=0.2, drop_model="iid", churn=0.5, stragglers=0.1)
        kinds = [type(fault).__name__ for fault in faults]
        assert kinds == ["IidDrop", "CrashChurn", "Stragglers"]
        bursty = build_faults(drop=0.2, drop_model="bursty")
        assert type(bursty[0]).__name__ == "GilbertElliottDrop"

    def test_unknown_drop_model_rejected(self):
        with pytest.raises(ConfigurationError):
            build_faults(drop=0.2, drop_model="lossy")

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            IidDrop(1.5)
        with pytest.raises(ConfigurationError):
            Stragglers(-0.1)
        with pytest.raises(ConfigurationError):
            GilbertElliottDrop(drop_bad=2.0)

    def test_reproducible_under_same_streams(self):
        def run(seed):
            rngs = RngRegistry(seed)
            sim = SingleLeaderSim(
                SingleLeaderParams(n=150, k=3, alpha0=2.0),
                biased_counts(150, 3, 2.0),
                rngs.stream("sim"),
            )
            inject_faults(sim, build_faults(drop=0.3, churn=0.5), rngs.stream("faults"))
            result = sim.run(max_time=200.0)
            return (result.elapsed, result.final_color_counts.tolist())

        assert run(11) == run(11)
        assert run(11) != run(12)


@pytest.mark.usefixtures("pool_block")
class TestPreparedSimulator:
    """`prepare_faulty_simulator` closes the initial-tick churn escape."""

    def test_node_crashed_at_t0_never_ticks(self, rngs):
        n = 60
        params = SingleLeaderParams(n=n, k=3, alpha0=2.0)
        simulator, wiring = prepare_faulty_simulator(
            n, [CrashAtTimes({node: 0.0 for node in range(n)})], rngs.stream("f")
        )
        sim = SingleLeaderSim(
            params, biased_counts(n, 3, 2.0), rngs.stream("sim"), simulator=simulator
        )
        wiring.bind(sim)
        sim.run(max_time=30.0)
        # Every node is crashed from t=0 permanently: with the pre-wrapped
        # simulator even the construction-time initial ticks are guarded,
        # so not a single tick ever fires.
        assert sim.total_ticks == 0
        assert sim.good_ticks == 0
        assert wiring.dead_ticks == n

    def test_inject_faults_documents_the_escape(self, rngs):
        # The post-construction path cannot govern construction-time
        # scheduling: the very first ticks still fire.  This pins the
        # behavioral difference the prepared path exists to fix.
        n = 60
        sim = _sim(11, n=n)
        wiring = inject_faults(
            sim, [CrashAtTimes({node: 0.0 for node in range(n)})], rngs.stream("f")
        )
        sim.run(max_time=30.0)
        assert sim.total_ticks > 0  # the escape
        assert wiring.dead_ticks > 0  # everything after it is governed

    def test_empty_fault_list_prepares_nothing(self, rngs):
        simulator, wiring = prepare_faulty_simulator(50, [], rngs.stream("f"))
        assert simulator is None
        assert wiring is None

    def test_prepared_run_converges_under_drop(self, rngs):
        n = 120
        params = SingleLeaderParams(n=n, k=3, alpha0=2.0)
        simulator, wiring = prepare_faulty_simulator(
            n, [IidDrop(0.2)], rngs.stream("f")
        )
        sim = SingleLeaderSim(
            params, biased_counts(n, 3, 2.0), rngs.stream("sim"), simulator=simulator
        )
        wiring.bind(sim)
        result = sim.run(max_time=600.0, epsilon=0.1)
        assert result.epsilon_convergence_time is not None
        assert wiring.dropped_messages > 0


class TestFaultModelEdgeCases:
    """Previously-unpinned corners of the event-stream fault models."""

    def test_gilbert_elliott_stationary_rate_matches_parameters(self, rngs):
        # The chain's stationary bad fraction is to_bad/(to_bad+to_good);
        # the marginal loss follows analytically.  60k driven messages
        # give a tight statistical pin (the chain mixes in ~2 steps).
        model = GilbertElliottDrop(
            drop_good=0.05, drop_bad=0.8, to_bad=0.2, to_good=0.4
        )

        class _Ctx:
            rng = rngs.stream("ge")
            n = 64

        model.install(_Ctx())
        samples = 60_000
        dropped = sum(
            1 for _ in range(samples) if model.transform("message", 0, 1.0) is None
        )
        stationary_bad = 0.2 / (0.2 + 0.4)
        expected = stationary_bad * 0.8 + (1.0 - stationary_bad) * 0.05
        assert abs(dropped / samples - expected) < 0.02
        assert model.bursts > 0

    def test_crash_at_times_duplicate_times_and_out_of_order(self, rngs):
        # Several nodes crashing at the same instant, inserted out of
        # order, must each crash exactly once and rejoin exactly once.
        schedule = {17: 10.0, 3: 10.0, 42: 2.0, 8: 10.0}
        sim = _sim(21, n=80)
        fault = CrashAtTimes(schedule, downtime=4.0)
        inject_faults(sim, [fault], rngs.stream("f"))
        sim.run(max_time=11.0)
        # At t=11: node 42 crashed at 2 and rejoined at 6; nodes 3, 8,
        # 17 crashed at 10 and are still down.
        assert fault.crashes == 4
        assert fault.rejoins == 1
        assert fault.crashed_until(42) is None
        for node in (3, 8, 17):
            assert fault.crashed_until(node) == pytest.approx(14.0)
        # Same schedule run past every rejoin: all four nodes come back.
        sim = _sim(21, n=80)
        fault = CrashAtTimes(schedule, downtime=4.0)
        wiring = inject_faults(sim, [fault], rngs.stream("f2"))
        sim.run(max_time=30.0)
        assert fault.crashes == 4
        assert fault.rejoins == 4
        assert wiring.info()["fault_rejoins"] == 4

    def test_crash_time_in_the_past_fires_immediately(self, rngs):
        # A schedule entry before the injection time is clamped to "now",
        # not silently skipped.  Drive the raw simulator (no end-of-run
        # accounting) so injection can happen mid-flight.
        sim = _sim(22, n=60)
        sim.sim.run(until=5.0)
        fault = CrashAtTimes({7: 1.0})  # t=1 is already in the past
        inject_faults(sim, [fault], rngs.stream("f"))
        sim.sim.run(until=6.0)
        assert fault.crashes == 1
        assert fault.crashed_until(7) == math.inf

    def test_stragglers_and_churn_composed_on_same_node(self, rngs):
        # fraction=1.0 forces every node into the straggler set, so the
        # crashed node is certainly both slowed and churned; the
        # deferred-tick resume path must then run through the straggler
        # transform without deadlocking the node.
        sim = _sim(23, n=60)
        straggle = Stragglers(1.0, slowdown=3.0)
        crash = CrashAtTimes({11: 5.0}, downtime=10.0)
        wiring = inject_faults(sim, [straggle, crash], rngs.stream("f"))
        result = sim.run(max_time=120.0)
        assert straggle.count == 60
        assert crash.crashes == 1 and crash.rejoins == 1
        # Node 11 came back: its state was reset at rejoin and it kept
        # participating (its clock survived the downtime).
        assert not sim.locked[11] or sim.good_ticks > 60
        assert wiring.deferred_ticks > 0
        assert result.elapsed <= 120.0
