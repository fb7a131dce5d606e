"""Instrumentation: data-access counters, memory estimation, timing,
and the thread-safe latency/queue-depth recorders the serving layer
(:mod:`repro.serve`) reports through its ``stats`` endpoint."""

from .counters import AccessCounter, NullCounter
from .latency import DepthGauge, LatencyRecorder, percentiles
from .memory import deep_size_bytes, state_size_bytes
from .timers import Stopwatch, Timing, best_of, time_call

__all__ = [
    "AccessCounter",
    "DepthGauge",
    "LatencyRecorder",
    "NullCounter",
    "Stopwatch",
    "Timing",
    "best_of",
    "deep_size_bytes",
    "percentiles",
    "state_size_bytes",
    "time_call",
]
