"""Run telemetry: metrics, phase-span timers, and campaign run reports.

The pipeline is instrumented against the :class:`Recorder` interface.
The default :data:`NULL_RECORDER` is a no-op (telemetry off costs one
empty method call per instrumentation point); a :class:`TelemetryRecorder`
collects counters/histograms and, when asked, Chrome-trace-style span
events.  :class:`RunReport` serializes a whole campaign — per-pass rows,
per-fault dispositions, simulation volume, timing — to versioned JSON
that the CI benchmark/regression gates consume.
"""

from .metrics import (
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    Recorder,
    TelemetryRecorder,
)
from .report import (
    FAULT_STATUSES,
    FaultRecord,
    PassReport,
    RunReport,
    SCHEMA,
    diff_reports,
    merge_run_reports,
    render_diff,
    validate_report,
)

__all__ = [
    "FAULT_STATUSES",
    "FaultRecord",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "PassReport",
    "Recorder",
    "RunReport",
    "SCHEMA",
    "TelemetryRecorder",
    "diff_reports",
    "merge_run_reports",
    "render_diff",
    "validate_report",
]
