"""Discrete-event simulation substrate.

This subpackage contains everything the protocols run *on top of*: the
event queue and simulator loop, edge-latency models and the
hypoexponential cycle-time math, the complete-graph address space,
deterministic RNG substreams, and structured tracing.
"""

from repro.engine.events import EventQueue
from repro.engine.hypoexp import Hypoexponential
from repro.engine.latency import (
    ChannelPlan,
    ConstantLatency,
    ExponentialLatency,
    GammaLatency,
    LatencyModel,
    cycle_distribution,
    example15_mean,
    remark14_bound,
    time_unit_steps,
)
from repro.engine.network import CompleteGraph
from repro.engine.rng import (
    ChannelDelayPool,
    DrawPool,
    ExponentialPool,
    IntegerPool,
    LatencyPool,
    RngRegistry,
    UniformPool,
)
from repro.engine.simulator import DEFAULT_ENGINE, DEFAULT_TICK_WINDOW, Simulator
from repro.engine.tracing import (
    NULL_TRACER,
    CountingTracer,
    NullTracer,
    TraceRecord,
    TraceRecorder,
    Tracer,
)

__all__ = [
    "EventQueue",
    "ChannelDelayPool",
    "DrawPool",
    "ExponentialPool",
    "IntegerPool",
    "LatencyPool",
    "UniformPool",
    "Hypoexponential",
    "ChannelPlan",
    "ConstantLatency",
    "ExponentialLatency",
    "GammaLatency",
    "LatencyModel",
    "cycle_distribution",
    "example15_mean",
    "remark14_bound",
    "time_unit_steps",
    "CompleteGraph",
    "RngRegistry",
    "Simulator",
    "DEFAULT_ENGINE",
    "DEFAULT_TICK_WINDOW",
    "NULL_TRACER",
    "CountingTracer",
    "NullTracer",
    "TraceRecord",
    "TraceRecorder",
    "Tracer",
]
