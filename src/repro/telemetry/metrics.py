"""Counters, histograms, and span-style phase timers for ATPG runs.

Everything in the pipeline reports through a :class:`Recorder`.  The
default recorder is :data:`NULL_RECORDER` — a no-op whose methods are
empty and whose spans are a single shared reusable context manager — so
instrumented code paths cost a plain method call when telemetry is off.
Passing a :class:`TelemetryRecorder` instead turns every ``count`` /
``observe`` / ``span`` call into structured data:

* **counters** — monotonically increasing integers (``atpg.backtracks``,
  ``sim.frames``, ``ga.generations`` …);
* **histograms** — value distributions with count/total/min/max
  (``justify.ga.seconds`` …); every finished span feeds one;
* **trace events** — optional Chrome-trace-style complete events
  (``ph: "X"``) with microsecond timestamps, written as JSONL by
  :meth:`TelemetryRecorder.save_trace`.

Metric names are dotted paths; the full catalogue lives in
``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

from ..clock import perf_counter


class Histogram:
    """Streaming summary of an observed value distribution."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its current ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's data into this one."""
        for name, n in other.counters.items():
            self.count(name, n)
        # gauges are point-in-time: the merged-in registry's value wins
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.count += hist.count
            mine.total += hist.total
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: sorted counters and histogram summaries."""
        data: Dict[str, Any] = {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }
        if self.gauges:
            data["gauges"] = dict(sorted(self.gauges.items()))
        return data


class _NullSpan:
    """Reusable do-nothing context manager shared by every no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """Telemetry interface; this base class is the no-op implementation.

    Calling the methods unconditionally is always safe and nearly free.
    """

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter (no-op)."""

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (no-op)."""

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation (no-op)."""

    def span(self, name: str, **attrs: object) -> Any:
        """Context manager timing a phase (no-op)."""
        return _NULL_SPAN

    def value(self, name: str) -> int:
        """Current counter value (always 0 for the no-op recorder)."""
        return 0


#: Shared default recorder: safe to use from any number of components.
NULL_RECORDER = Recorder()


class _Span:
    """Times one phase; feeds a histogram and (optionally) a trace event."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(
        self,
        recorder: "TelemetryRecorder",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._recorder.clock()
        self._recorder.push(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        recorder = self._recorder
        end = recorder.clock()
        recorder.pop()
        recorder.finish_span(self._name, self._start, end, self._attrs)


class TelemetryRecorder(Recorder):
    """Collects counters, histograms, and (optionally) trace events.

    Args:
        trace: also keep a Chrome-trace-style event list (one complete
            event per finished span) retrievable via :attr:`trace_events`
            and :meth:`save_trace`.
        clock: monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        trace: bool = False,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace_enabled = trace
        self.trace_events: List[Dict[str, Any]] = []
        self.clock = clock
        self._epoch = clock()
        self._stack: List[str] = []

    # -- Recorder interface -------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.registry.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def span(self, name: str, **attrs: object) -> _Span:
        return _Span(self, name, attrs)

    def value(self, name: str) -> int:
        return self.registry.value(name)

    # -- span plumbing -------------------------------------------------
    def push(self, name: str) -> None:
        self._stack.append(name)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def depth(self) -> int:
        """Current span nesting depth."""
        return len(self._stack)

    def finish_span(
        self,
        name: str,
        start: float,
        end: float,
        attrs: Dict[str, object],
    ) -> None:
        """Record one completed span (called by :class:`_Span`)."""
        duration = end - start
        self.registry.count(f"{name}.calls")
        self.registry.observe(f"{name}.seconds", duration)
        if self.trace_enabled:
            event: Dict[str, Any] = {
                "name": name,
                "ph": "X",
                "ts": (start - self._epoch) * 1e6,
                "dur": duration * 1e6,
                "depth": len(self._stack),
            }
            if attrs:
                event["args"] = attrs
            self.trace_events.append(event)

    # -- output --------------------------------------------------------
    def save_trace(self, path: str) -> None:
        """Write the trace as JSON Lines (one event object per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.trace_events:
                handle.write(json.dumps(event) + "\n")
