"""Unit tests for repro.telemetry.metrics: recorders, spans, registries."""

import json

import pytest

from repro.telemetry import (
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    Recorder,
    TelemetryRecorder,
)
from repro.telemetry.metrics import _NULL_SPAN


class FakeClock:
    """Deterministic clock advancing a fixed step per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestNullRecorder:
    def test_is_the_base_recorder(self):
        assert type(NULL_RECORDER) is Recorder

    def test_methods_are_noops(self):
        NULL_RECORDER.count("x")
        NULL_RECORDER.count("x", 5)
        NULL_RECORDER.observe("y", 1.5)
        assert NULL_RECORDER.value("x") == 0

    def test_span_reuses_shared_singleton(self):
        # The no-op span must not allocate per call: every invocation
        # returns the same module-level context manager.
        first = NULL_RECORDER.span("phase")
        second = NULL_RECORDER.span("other", attr=1)
        assert first is second is _NULL_SPAN
        with first as inner:
            assert inner is first

    def test_nested_noop_spans(self):
        with NULL_RECORDER.span("a"):
            with NULL_RECORDER.span("b"):
                NULL_RECORDER.count("inner")
        assert NULL_RECORDER.value("inner") == 0


class TestHistogram:
    def test_streaming_summary(self):
        hist = Histogram()
        for value in (2.0, 4.0, 6.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.total == 12.0
        assert hist.min == 2.0
        assert hist.max == 6.0
        assert hist.mean == 4.0

    def test_empty_to_dict_is_finite(self):
        data = Histogram().to_dict()
        assert data == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class TestMetricsRegistry:
    def test_count_and_value(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        assert reg.value("a") == 5
        assert reg.value("missing") == 0

    def test_merge_folds_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.count("shared", 2)
        b.count("shared", 3)
        b.count("only_b")
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.merge(b)
        assert a.value("shared") == 5
        assert a.value("only_b") == 1
        hist = a.histograms["h"]
        assert hist.count == 2 and hist.min == 1.0 and hist.max == 5.0

    def test_to_dict_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.count("z")
        reg.count("a")
        reg.observe("m", 2.0)
        data = reg.to_dict()
        assert list(data["counters"]) == ["a", "z"]
        json.dumps(data)  # must not raise


class TestTelemetryRecorder:
    def test_counts_and_observations(self):
        rec = TelemetryRecorder()
        rec.count("c", 3)
        rec.observe("h", 0.5)
        assert rec.value("c") == 3
        assert rec.registry.histograms["h"].count == 1

    def test_span_emits_calls_counter_and_seconds_histogram(self):
        rec = TelemetryRecorder(clock=FakeClock(step=1.0))
        with rec.span("phase"):
            pass
        assert rec.value("phase.calls") == 1
        hist = rec.registry.histograms["phase.seconds"]
        assert hist.count == 1
        assert hist.total == pytest.approx(1.0)

    def test_nested_spans_track_depth_in_trace(self):
        rec = TelemetryRecorder(trace=True, clock=FakeClock(step=1.0))
        with rec.span("outer"):
            assert rec.depth == 1
            with rec.span("inner", fault="g1/0"):
                assert rec.depth == 2
        assert rec.depth == 0
        # inner closes first; depth recorded after the pop.
        inner, outer = rec.trace_events
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert inner["ph"] == outer["ph"] == "X"
        assert inner["args"] == {"fault": "g1/0"}
        assert "args" not in outer

    def test_trace_disabled_keeps_no_events(self):
        rec = TelemetryRecorder(trace=False)
        with rec.span("phase"):
            pass
        assert rec.trace_events == []
        assert rec.value("phase.calls") == 1

    def test_save_trace_writes_jsonl(self, tmp_path):
        rec = TelemetryRecorder(trace=True, clock=FakeClock(step=1.0))
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        path = tmp_path / "trace.jsonl"
        rec.save_trace(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        names = {json.loads(line)["name"] for line in lines}
        assert names == {"a", "b"}

    def test_span_timing_uses_injected_clock(self):
        clock = FakeClock(step=2.0)
        rec = TelemetryRecorder(clock=clock)
        with rec.span("slow"):
            pass
        hist = rec.registry.histograms["slow.seconds"]
        assert hist.total == pytest.approx(2.0)


class TestNoOpOverhead:
    def test_null_recorder_overhead_is_small(self):
        """Instrumented loop with NULL_RECORDER stays near bare-loop cost."""
        import timeit

        def bare():
            total = 0
            for i in range(1000):
                total += i
            return total

        def instrumented():
            total = 0
            rec = NULL_RECORDER
            for i in range(1000):
                rec.count("n")
                total += i
            return total

        bare_s = min(timeit.repeat(bare, number=200, repeat=5))
        inst_s = min(timeit.repeat(instrumented, number=200, repeat=5))
        # A no-op method call per iteration should cost no more than a
        # few times the bare loop body — generous bound for CI jitter.
        assert inst_s < bare_s * 6
