"""Gate a fresh benchmark JSON against a committed baseline.

Usage::

    python benchmarks/check_regression.py NEW_JSON BASELINE_JSON \
        [--min-ratio 0.8]
    python benchmarks/check_regression.py BENCH_campaign.json \
        [BASELINE_JSON] --campaign

Two modes.  The default gates ``BENCH_simulation.json``: the benchmark
job regenerates it by running the parallelism/backend ablation, then
calls this script with the fresh file and the baseline committed at the
repository root.  The gate fails (exit status 1) when:

* the fresh codegen-vs-event speedup at width 64 drops below
  ``--min-ratio`` of the baseline's — i.e. the generated kernels lost a
  meaningful fraction of their advantage;
* a warm kernel-cache pass reports any compilations — a warm start must
  skip compilation entirely;
* transition-model grading costs more than ``--max-transition-overhead``
  (absolute, default 3.0) times stuck-at grading on the codegen backend
  at identical batch shapes — the launch/capture injection planes must
  stay a constant-factor tax.

Raw per-width timings are printed
for context but not gated: absolute seconds vary with runner hardware,
while backend *ratios* are measured on the same machine in the same run
and are therefore stable.

``--campaign`` gates ``BENCH_campaign.json`` instead.  Its floors are
absolute, not baseline-relative, because speedups are already
self-normalized (4-worker wall over 1-worker wall, same machine, same
run):

* drill-mode 4-worker speedup must clear ``--min-drill-speedup``
  (default 2.0) — drill items are concurrent sleeps, so this holds on
  any host and isolates orchestration overhead;
* real-ATPG 4-worker speedup must clear ``--min-real-speedup`` (default
  2.5) — but only when the fresh file's recorded ``cores`` is at least
  4.  Real items are CPU-bound: on a smaller host the floor is
  physically unreachable, so the gate prints UNMEASURED and a GitHub
  ``::warning::`` annotation naming the recorded core count.  The exit
  status stays 0, because the committed file was recorded on one core.

When the fresh file carries a ``service`` section (written by
``benchmarks/test_service_load.py``), the service-load floors apply too:

* at least ``--min-service-clients`` (default 100) concurrent
  submit+stream clients were driven;
* zero dropped SSE streams and zero client errors;
* the worst queued→started wait stayed within the bound the load
  harness recorded (``queue_wait_bound_s``).

``--policy`` gates ``BENCH_policy.json`` (written by
``benchmarks/test_policy.py``).  Its floors are absolute, measured
static-vs-policy on the same machine in the same run:

* every circuit's policy-campaign detected fault set is identical to the
  static campaign's (``coverage_equal``) — the mop-up safety net means a
  learned schedule may only move work, never drop coverage;
* the policy solve phase took at most ``--max-solve-ratio`` (default
  0.9) of the static solve phase — the ≥10%% wall-time saving the
  policy exists for;
* the policy engaged: non-zero ``atpg.policy.pass_skips``.

A baseline, when given, is printed for context only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

#: Key of the gated headline metric inside ``BENCH_simulation.json``.
SPEEDUP_KEY = "codegen_speedup_width64"

#: Keys of the persistent-cache compile counts.
COLD_COMPILES_KEY = "kernel_compiles_cold"
WARM_COMPILES_KEY = "kernel_compiles_warm"

#: Key of the transition-model grading overhead (codegen transition
#: grading over codegen stuck-at grading, same batch shapes; absent on
#: baselines predating the fault-model registry).
TRANSITION_OVERHEAD_KEY = "transition_grade_overhead_codegen"


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    min_ratio: float,
    max_transition_overhead: float = 3.0,
) -> int:
    """Print the comparison; return a process exit status."""
    new_speedup = float(new[SPEEDUP_KEY])
    base_speedup = float(baseline[SPEEDUP_KEY])
    ratio = new_speedup / base_speedup if base_speedup else float("inf")
    failures = []

    print(f"benchmark regression gate ({new.get('circuit', '?')}):")
    for backend in new.get("backends", []):
        new_s = new.get("seconds", {}).get(backend, {})
        base_s = baseline.get("seconds", {}).get(backend, {})
        for width, seconds in new_s.items():
            base = base_s.get(width)
            delta = (
                f"{100.0 * (seconds / base - 1.0):+6.1f}%"
                if base
                else "   n/a"
            )
            print(
                f"  {backend:>8s} width {width:>4s}: "
                f"{seconds * 1e3:8.1f} ms (baseline delta {delta})"
            )
    print(
        f"  codegen speedup at width 64: {new_speedup:.2f}x "
        f"(baseline {base_speedup:.2f}x, ratio {ratio:.2f}, "
        f"floor {min_ratio:.2f})"
    )
    if ratio < min_ratio:
        failures.append(
            f"speedup ratio {ratio:.2f} fell below the {min_ratio:.2f}x "
            "floor — the codegen backend regressed relative to the event "
            "backend"
        )

    if TRANSITION_OVERHEAD_KEY in new:
        overhead = float(new[TRANSITION_OVERHEAD_KEY])
        print(
            f"  transition grading overhead over stuck-at (codegen): "
            f"{overhead:.2f}x (ceiling {max_transition_overhead:.2f})"
        )
        if overhead > max_transition_overhead:
            failures.append(
                f"transition grading cost {overhead:.2f}x stuck-at, "
                f"above the {max_transition_overhead:.2f}x ceiling — "
                "launch/capture injection planes got too expensive"
            )
    else:
        print(
            "  transition grading overhead: not measured "
            "(file predates the fault-model registry)"
        )

    if WARM_COMPILES_KEY in new:
        cold = int(new.get(COLD_COMPILES_KEY, 0))
        warm = int(new[WARM_COMPILES_KEY])
        print(f"  kernel cache: {cold} cold compiles, {warm} warm")
        if warm != 0:
            failures.append(
                f"warm kernel-cache pass compiled {warm} kernels "
                "(expected 0)"
            )

    for failure in failures:
        print(f"  FAIL: {failure}")
    if failures:
        return 1
    print("  PASS")
    return 0


def check_service(new: Dict[str, Any], min_clients: int) -> list:
    """Service-load floors; returns the failure messages (maybe empty)."""
    service = new.get("service")
    if not service:
        print("  service load: not measured")
        return []
    clients = int(service.get("clients", 0))
    dropped = int(service.get("dropped_streams", 0))
    errors = int(service.get("client_errors", 0))
    wait_max = float(service.get("queue_wait_max_s", 0.0))
    wait_bound = float(service.get("queue_wait_bound_s", 0.0))
    failures = []
    print(
        f"  service load: {clients} clients in "
        f"{float(service.get('wall_seconds', 0.0)):.2f}s — "
        f"{dropped} dropped streams, {errors} client errors, "
        f"queue wait max {wait_max:.2f}s (bound {wait_bound:.0f}s)"
    )
    if clients < min_clients:
        failures.append(
            f"service load drove only {clients} clients "
            f"(floor {min_clients})"
        )
    if dropped != 0:
        failures.append(f"{dropped} SSE streams were dropped (expected 0)")
    if errors != 0:
        failures.append(f"{errors} service clients errored (expected 0)")
    if wait_bound and wait_max > wait_bound:
        failures.append(
            f"queue wait {wait_max:.2f}s exceeded the "
            f"{wait_bound:.0f}s bound — dispatch is wedging under load"
        )
    return failures


def compare_campaign(
    new: Dict[str, Any],
    baseline: Dict[str, Any] | None,
    min_drill_speedup: float,
    min_real_speedup: float,
    min_service_clients: int = 100,
) -> int:
    """Gate ``BENCH_campaign.json``; return a process exit status."""
    cores = int(new.get("cores", 0))
    drill = float(new["speedup_workers4"])
    real = new.get("real_atpg", {})
    real_speedup = float(real.get("speedup", {}).get("4", 0.0))
    failures = []

    print(f"campaign scaling gate (recorded on a {cores}-core host):")
    print(
        f"  drill 4-worker speedup: {drill:.2f}x "
        f"(floor {min_drill_speedup:.2f})"
    )
    if baseline is not None and "speedup_workers4" in baseline:
        print(
            f"    baseline: {float(baseline['speedup_workers4']):.2f}x "
            "(informational)"
        )
    if drill < min_drill_speedup:
        failures.append(
            f"drill speedup {drill:.2f}x fell below the "
            f"{min_drill_speedup:.2f}x floor — orchestration overhead "
            "(dispatch, journal, heartbeats) grew"
        )

    phases = real.get("phase_seconds", {}).get("4", {})
    if phases:
        print(
            "  real-ATPG 4-worker phases: "
            + "  ".join(f"{k} {v:.2f}s" for k, v in sorted(phases.items()))
        )
    if cores >= 4:
        print(
            f"  real-ATPG 4-worker speedup: {real_speedup:.2f}x "
            f"(floor {min_real_speedup:.2f})"
        )
        if real_speedup < min_real_speedup:
            failures.append(
                f"real-ATPG speedup {real_speedup:.2f}x fell below the "
                f"{min_real_speedup:.2f}x floor — the warm-fork pool "
                "stopped paying for itself"
            )
    else:
        print(
            f"  real-ATPG 4-worker speedup: {real_speedup:.2f}x "
            f"(UNMEASURED: floor needs >=4 cores, file was recorded on {cores})"
        )
        print(
            "::warning::real-ATPG 4-worker scaling floor UNMEASURED: "
            f"BENCH_campaign.json was recorded on {cores} core(s), "
            "the floor needs at least 4"
        )

    failures.extend(check_service(new, min_service_clients))

    for failure in failures:
        print(f"  FAIL: {failure}")
    if failures:
        return 1
    print("  PASS")
    return 0


def compare_policy(new: Dict[str, Any], max_solve_ratio: float) -> int:
    """Gate ``BENCH_policy.json``; return a process exit status."""
    ratio = float(new["solve_ratio"])
    counters = new.get("policy_counters", {})
    skips = int(counters.get("atpg.policy.pass_skips", 0))
    failures = []

    print("policy schedule gate:")
    for name, row in sorted(new.get("circuits", {}).items()):
        equal = bool(row.get("detected_equal"))
        print(
            f"  {name}: static coverage "
            f"{float(row.get('static_coverage', 0.0)):.3f}, policy "
            f"{float(row.get('policy_coverage', 0.0)):.3f}, detected "
            f"sets {'identical' if equal else 'DIFFER'}"
        )
        if not equal:
            failures.append(
                f"{name}: the policy campaign detected a different fault "
                "set than the static schedule — the mop-up safety net is "
                "broken"
            )
    print(
        f"  solve wall: static {float(new['solve_seconds_static']):.2f} s, "
        f"policy {float(new['solve_seconds_policy']):.2f} s — ratio "
        f"{ratio:.3f} (ceiling {max_solve_ratio:.2f})"
    )
    if ratio > max_solve_ratio:
        failures.append(
            f"policy solve ratio {ratio:.3f} exceeded the "
            f"{max_solve_ratio:.2f} ceiling — the learned schedule "
            "stopped paying for itself"
        )
    print(
        f"  policy activity: {skips} pass skips, "
        f"{int(counters.get('atpg.policy.deferred', 0))} deferrals, "
        f"{int(counters.get('atpg.policy.mispredictions', 0))} "
        "mispredictions"
    )
    if skips == 0:
        failures.append(
            "the policy never skipped a pass — it was inert, so the "
            "wall-time ratio measures nothing"
        )

    for failure in failures:
        print(f"  FAIL: {failure}")
    if failures:
        return 1
    print("  PASS")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="freshly generated benchmark JSON")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="committed baseline JSON (required without --campaign)",
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="gate BENCH_campaign.json with absolute speedup floors "
        "instead of BENCH_simulation.json against a baseline",
    )
    parser.add_argument(
        "--policy",
        action="store_true",
        help="gate BENCH_policy.json: identical detected sets and a "
        "solve wall-time ratio at or below --max-solve-ratio",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.8,
        help="minimum new/baseline speedup ratio (default 0.8)",
    )
    parser.add_argument(
        "--max-transition-overhead",
        type=float,
        default=3.0,
        help="maximum transition/stuck-at codegen grading cost ratio "
        "(default 3.0)",
    )
    parser.add_argument(
        "--min-drill-speedup",
        type=float,
        default=2.0,
        help="--campaign: minimum drill-mode 4-worker speedup "
        "(default 2.0)",
    )
    parser.add_argument(
        "--min-real-speedup",
        type=float,
        default=2.5,
        help="--campaign: minimum real-ATPG 4-worker speedup, gated "
        "only when the file's cores >= 4 (default 2.5)",
    )
    parser.add_argument(
        "--min-service-clients",
        type=int,
        default=100,
        help="--campaign: minimum concurrent service-load clients, "
        "gated only when the file has a 'service' section (default 100)",
    )
    parser.add_argument(
        "--max-solve-ratio",
        type=float,
        default=0.9,
        help="--policy: maximum policy/static solve wall-time ratio "
        "(default 0.9 — at least a 10%% saving)",
    )
    args = parser.parse_args(argv)
    if args.policy:
        return compare_policy(load(args.new), args.max_solve_ratio)
    if args.campaign:
        return compare_campaign(
            load(args.new),
            load(args.baseline) if args.baseline else None,
            args.min_drill_speedup,
            args.min_real_speedup,
            args.min_service_clients,
        )
    if args.baseline is None:
        parser.error("baseline JSON is required without --campaign")
    return compare(
        load(args.new),
        load(args.baseline),
        args.min_ratio,
        args.max_transition_overhead,
    )


if __name__ == "__main__":
    sys.exit(main())
