"""Lint-style guard: every wall-clock read goes through ``repro.clock``.

PR 3 made every deadline clock-injectable; this test keeps it that way.
A direct ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``
read anywhere in ``src/repro`` (outside the sanctioned ``clock`` module)
re-introduces an untestable timeout path, so the grep fails the build
with the exact offending lines.  ``time.sleep`` (a delay, not a read) and
``time.thread_time`` (CPU accounting, not wall clock) stay allowed.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Wall-clock reads that must be imported from :mod:`repro.clock` instead.
FORBIDDEN = re.compile(r"\btime\.(time|monotonic|perf_counter)\b")

#: The one module allowed to touch the real clocks.
SANCTIONED = SRC / "clock.py"


def test_source_tree_exists() -> None:
    assert SRC.is_dir(), f"source tree not found at {SRC}"
    assert SANCTIONED.is_file(), "repro/clock.py is missing"


def test_no_direct_wallclock_reads_outside_clock_module() -> None:
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SANCTIONED:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if FORBIDDEN.search(line):
                rel = path.relative_to(SRC.parent)
                violations.append(f"{rel}:{lineno}: {line.strip()}")
    assert not violations, (
        "direct wall-clock reads found; import from repro.clock instead:\n"
        + "\n".join(violations)
    )


def test_clock_module_is_the_single_time_authority() -> None:
    """The sanctioned module really does export the three clocks."""
    from repro import clock

    assert callable(clock.monotonic)
    assert callable(clock.perf_counter)
    assert callable(clock.wall)
    # Monotonic clocks never run backwards.
    a, b = clock.monotonic(), clock.monotonic()
    assert b >= a
