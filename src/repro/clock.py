"""The single sanctioned wall-clock source for the whole package.

Every deadline, duration, and timestamp in ``repro`` is measured against a
clock *injected* by the caller (tests pass fake clocks; campaign workers
enforce budgets against a shared clock).  The injectable defaults live
here, and only here: a lint-style test
(``tests/test_clock_discipline.py``) greps the source tree and fails if
any other module reads ``time.time`` / ``time.monotonic`` /
``time.perf_counter`` directly, so a stray direct read cannot silently
re-introduce untestable timeout paths.

``time.sleep`` (a delay, not a clock read) and ``time.thread_time``
(CPU accounting, not wall clock) remain allowed everywhere.
"""

from __future__ import annotations

import time
from typing import Callable

#: Signature of every injectable clock in the package.
Clock = Callable[[], float]

#: Monotonic wall clock — the default for deadlines and durations.
monotonic: Clock = time.monotonic

#: High-resolution monotonic clock — the default for telemetry spans and
#: kernel-compile accounting, where sub-millisecond resolution matters.
perf_counter: Clock = time.perf_counter

#: Absolute wall-clock time (epoch seconds) — journal timestamps only;
#: never use it to measure durations.
wall: Clock = time.time
