"""Tests for instrumentation: counters, memory estimation, timers."""

import time

from repro.metrics import (
    AccessCounter,
    NullCounter,
    Stopwatch,
    best_of,
    deep_size_bytes,
    state_size_bytes,
    time_call,
)


class TestAccessCounter:
    def test_counts_each_kind(self):
        c = AccessCounter()
        c.on_read("x")
        c.on_read("y")
        c.on_write("x")
        c.on_eval("x")
        c.on_scope_push("z")
        assert (c.reads, c.writes, c.evals, c.scope_pushes) == (2, 1, 1, 1)
        assert c.total == 5

    def test_trace_records_keys(self):
        c = AccessCounter(trace=True)
        c.on_read("x")
        c.on_scope_push("y")
        assert c.traced == {"x", "y"}

    def test_no_trace_by_default(self):
        c = AccessCounter()
        c.on_read("x")
        assert c.traced is None

    def test_reset(self):
        c = AccessCounter(trace=True)
        c.on_read("x")
        c.reset()
        assert c.total == 0
        assert c.traced == set()

    def test_merge(self):
        a = AccessCounter(trace=True)
        b = AccessCounter(trace=True)
        a.on_read("x")
        b.on_write("y")
        a.merge(b)
        assert a.total == 2
        assert a.traced == {"x", "y"}

    def test_as_dict_and_repr(self):
        c = AccessCounter()
        c.on_eval("x")
        assert c.as_dict()["evals"] == 1
        assert "evals=1" in repr(c)

    def test_null_counter_ignores_everything(self):
        c = NullCounter()
        c.on_read("x")
        c.on_write("x")
        c.on_eval("x")
        c.on_scope_push("x")
        assert c.total == 0


class TestMemory:
    def test_containers_counted_recursively(self):
        flat = deep_size_bytes([1, 2, 3])
        nested = deep_size_bytes([[1, 2, 3], [4, 5, 6]])
        assert nested > flat > 0

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        assert deep_size_bytes([shared, shared]) < 2 * deep_size_bytes(shared)

    def test_dicts_and_slots(self):
        class Slotted:
            __slots__ = ("a",)

            def __init__(self):
                self.a = list(range(50))

        assert deep_size_bytes(Slotted()) > deep_size_bytes(list(range(50)))
        assert deep_size_bytes({"k": [1, 2]}) > deep_size_bytes({})

    def test_state_size(self):
        from repro.core.state import FixpointState

        state = FixpointState()
        for i in range(100):
            state.seed(i, float(i))
        assert state_size_bytes(state) > 100 * 8


class TestTimers:
    def test_stopwatch(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.005

    def test_time_call_returns_result(self):
        result, seconds = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0

    def test_best_of_warms_up_and_prepares_outside_timing(self):
        prepared = []

        def prepare():
            prepared.append([])
            return (prepared[-1],)

        timing = best_of(lambda xs: xs.append(1) or len(xs), 3, prepare=prepare)
        assert len(prepared) == 4  # one warmup + three timed calls
        assert timing.result == 1  # every call got fresh arguments
        assert timing.spread >= 1.0 and timing.seconds >= 0.0


class TestLatencyRecorder:
    def test_percentiles_over_window(self):
        from repro.metrics import LatencyRecorder

        rec = LatencyRecorder()
        for ms in range(1, 101):  # 1ms..100ms
            rec.record(ms / 1000.0)
        snap = rec.snapshot(reset=False)
        assert snap["count"] == 100
        assert snap["window"] == 100
        assert abs(snap["p50"] - 0.050) < 0.005
        assert abs(snap["p99"] - 0.100) < 0.005
        assert snap["max"] == 0.1

    def test_reset_rolls_window_keeps_ring(self):
        from repro.metrics import LatencyRecorder

        rec = LatencyRecorder()
        rec.record(0.01)
        first = rec.snapshot(reset=True)
        assert first["window"] == 1
        second = rec.snapshot(reset=True)
        assert second["window"] == 0        # per-window count rolled
        assert second["count"] == 1         # lifetime sample count kept
        assert second["p50"] > 0            # percentiles still computable

    def test_empty_snapshot(self):
        from repro.metrics import LatencyRecorder

        snap = LatencyRecorder().snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0

    def test_percentiles_helper(self):
        from repro.metrics import percentiles

        result = percentiles([0.001, 0.002, 0.003, 0.004])
        assert result["count"] == 4
        assert result["p50"] <= result["p90"] <= result["p99"] <= result["max"]
        assert percentiles([])["count"] == 0


class TestDepthGauge:
    def test_high_water_tracking(self):
        from repro.metrics import DepthGauge

        gauge = DepthGauge()
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        snap = gauge.snapshot(reset=False)
        assert snap["depth"] == 2 and snap["high_water"] == 7
        snap = gauge.snapshot(reset=True)
        assert gauge.snapshot()["high_water"] == 2  # reset to current depth
