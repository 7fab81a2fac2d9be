"""One fresh interpreter of the end-to-end benchmark.

    python benchmarks/e2e/child.py setup WORKLOAD SEED WORKDIR
    python benchmarks/e2e/child.py run WORKLOAD SEED WORKDIR [--trace]

``setup`` imports ``repro``, builds the workload's inputs and prints
``ready``; the parent times it from process start.  ``run`` then runs the
workload once, re-grades what it produced outside the timed region, and
prints one JSON record as its last line.  ``run.py`` starts this script
with ``PYTHONPATH`` pointing at ``src`` and every ``REPRO_*`` variable
removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_s() -> float:
    """User+sys seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the import dominates set-up)

    import_s = time.perf_counter() - t0
    from repro.simulation.logic_sim import resolve_backend

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        parts = os.path.join(args.workdir, "parts")
        os.makedirs(parts, exist_ok=True)
        tracer = tracing.Tracer(parts_dir=parts)
        tracing.install_repro(tracer)
    state = workload.setup(args.seed)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    setup_layers = {}
    if tracer is not None:
        setup_layers = tracer.layer_self_s()
        tracer.reset()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    result = workload.run(state, args.workdir)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.absorb_parts()

    outcome = workload.summarize(state, result, args.workdir)
    t0 = time.perf_counter()
    unconfirmed = workload.regrade(state, result)
    regrade_s = time.perf_counter() - t0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "python": platform.python_version(),
        "backend": resolve_backend(None),
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "detected": len(outcome.detected),
        "detected_sha256": hashlib.sha256(
            "\n".join(outcome.detected).encode("utf-8")
        ).hexdigest(),
        "untestable": outcome.untestable,
        "vectors": outcome.vectors,
        "total_faults": outcome.total_faults,
        "operations": outcome.operations,
        "failed_ops": outcome.failed_ops,
        "unconfirmed": unconfirmed,
        "regrade_s": regrade_s,
        "fault_s": outcome.fault_s,
        "extra": outcome.extra,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_table(tracer, run_s)
        record["layer_metrics"] = tracing.repro_layer_metrics(
            setup_layers,
            tracer,
            run_s,
            import_s,
            solve_s=outcome.extra.get("solve_s", 0.0),
            workers=int(outcome.extra.get("workers", 0)),
            items_retried=int(outcome.extra.get("items_retried", 0)),
        )
        tracer.write_chrome_trace(
            os.path.join(HERE, "out", f"trace_{args.workload}.json")
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
