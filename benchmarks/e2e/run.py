"""End-to-end benchmark of the GA-HITEC reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 7]
        [--seconds S] [--trace [0|1]] [--out FILE]

For each workload, one at a time: time seven cold starts (set-up, not
with ``--trace 1``), then run the workload in fresh interpreters, one
after another, until ``--seconds`` have passed (at least once), and
report medians.  Every
interpreter gets ``PYTHONPATH=src`` and no ``REPRO_*`` variable, and runs
under a hard timeout that fails the workload.  Each run's test set is
re-graded by an independent fault simulation; a detected fault it does not
confirm is a failed operation, and so is a crash or a timeout.

With ``--trace 1`` the runs alternate untraced and traced, and the
per-layer metrics replace the end-to-end ones.  The metric names, units
and bounds are those of ``BENCHMARK.json``.  A table goes to standard
output, a JSON document to ``--out``, and the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

#: cold starts per set-up measurement
SETUP_STARTS = 7
#: hard limit on one workload beyond its --seconds; exceeding it fails it
TIMEOUT_SLACK_S = 120.0


class ChildFailed(RuntimeError):
    """A benchmark interpreter crashed, timed out or printed no record."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_commit() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _spawn(args: List[str]) -> subprocess.Popen:
    """Start a benchmark interpreter in a process group of its own."""
    return subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )


def _stop(proc: subprocess.Popen) -> None:
    """Kill the interpreter and anything it forked; wait until all are gone.

    A campaign interpreter killed at its deadline would otherwise leave
    its forked workers blocked on their task queues.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cold_start(workload: str, seed: int, workdir: str, deadline: float) -> float:
    """Seconds from spawning an interpreter to its set-up being done."""
    t0 = time.perf_counter()
    proc = _spawn(["setup", workload, str(seed), workdir])
    try:
        ready, _, _ = select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.perf_counter())
        )
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise ChildFailed(f"{workload}: set-up did not finish")
        proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: set-up timed out") from None
    finally:
        _stop(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: set-up exited {proc.returncode}")
    return elapsed


def run_once(workload: str, seed: int, traced: bool, deadline: float) -> Dict[str, Any]:
    """One run of the workload in a fresh interpreter; its JSON record."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    proc = _spawn(
        ["run", workload, str(seed), workdir] + (["--trace"] if traced else [])
    )
    try:
        out, _ = proc.communicate(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: run timed out") from None
    finally:
        _stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: run exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runs: List[Dict[str, Any]], setup: List[float]) -> Dict[str, float]:
    """Medians over the untraced runs (and the cold starts)."""
    def med(key: str) -> float:
        return statistics.median(r[key] for r in runs)

    first = runs[0]
    total = first["total_faults"]
    return {
        "run_s": med("run_s"),
        "setup_s": statistics.median(setup),
        "cpu_s": med("cpu_s"),
        "fault_ms_p50": statistics.median(
            1000 * percentile(r["fault_s"], 50) for r in runs
        ),
        "fault_ms_p90": statistics.median(
            1000 * percentile(r["fault_s"], 90) for r in runs
        ),
        "peak_rss_mb": med("peak_rss_mb"),
        "fault_coverage": first["detected"] / total,
        "fault_efficiency": (first["detected"] + first["untestable"]) / total,
        "vectors": first["vectors"],
    }


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-metric medians over the traced runs, plus the tracing overhead."""
    names = traced[0]["layer_metrics"]
    out = {
        name: statistics.median(r["layer_metrics"][name] for r in traced)
        for name in names
    }
    out["trace.overhead"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in untraced)
        - 1.0
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Everything the benchmark records about one workload."""
    deadline = time.perf_counter() + seconds + TIMEOUT_SLACK_S
    report: Dict[str, Any] = {"errors": [], "setup_samples": [], "runs": []}
    runs: List[Dict[str, Any]] = report["runs"]
    try:
        if not trace:
            workdir = tempfile.mkdtemp(prefix=f"{workload}-setup-", dir=OUT)
            try:
                for _ in range(SETUP_STARTS):
                    report["setup_samples"].append(
                        cold_start(workload, seed, workdir, deadline)
                    )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        # traced runs alternate with untraced ones: the overhead is their ratio
        while len(runs) < (2 if trace else 1) or time.perf_counter() - start < seconds:
            runs.append(run_once(workload, seed, trace and len(runs) % 2 == 1, deadline))
    except ChildFailed as exc:
        report["errors"].append(str(exc))

    ops = runs[0]["operations"] if runs else 1
    attempted = sum(r["operations"] for r in runs)
    failed = sum(r["failed_ops"] + r["unconfirmed"] for r in runs)
    if report["errors"]:
        # a crash or a timeout fails every operation of that run
        attempted += ops
        failed += ops
    outputs = {
        (r["detected_sha256"], r["untestable"], r["vectors"]) for r in runs
    }
    report.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        correct=not report["errors"] and failed == 0 and len(outputs) == 1,
    )
    if runs:
        first = runs[0]
        report.update(
            detected=first["detected"],
            untestable=first["untestable"],
            total_faults=first["total_faults"],
            detected_sha256=first["detected_sha256"],
            fault_samples=len(first["fault_s"]),
            backend=first["backend"],
            python=first["python"],
        )
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    if trace and traced and untraced:
        report["per_layer"] = per_layer(traced, untraced)
        report["layers"] = traced[0]["layers"]
    elif not trace and untraced and report["setup_samples"]:
        report["end_to_end"] = end_to_end(untraced, report["setup_samples"])
    for r in runs:
        r.pop("fault_s")
    return report


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def print_report(name: str, report: Dict[str, Any], metrics: List[Dict[str, Any]],
                 key: str) -> None:
    print(f"== {name}")
    if "detected" in report:
        print(
            f"   detected {report['detected']}/{report['total_faults']}  "
            f"untestable {report['untestable']}  "
            f"sha256 {report['detected_sha256']}  backend {report['backend']}"
        )
    print(
        f"   runs {len(report['runs'])}  fault samples "
        f"{report.get('fault_samples', 0)}  attempted {report['attempted']}  "
        f"failed {report['failed']}  error_rate {report['error_rate']:.4f}  "
        f"correct {report['correct']}"
    )
    for error in report["errors"]:
        print(f"   ERROR {error}")
    values = report.get(key, {})
    for metric in metrics:
        if metric["name"] in values:
            print(f"   {metric['name']:<38s} {values[metric['name']]:>14.6g} {metric['unit']}")
    if "layers" in report:
        print(f"   {'layer':<26s} {'calls':>9s} {'self_s':>9s} {'share':>7s}")
        for layer, row in report["layers"].items():
            print(
                f"   {layer:<26s} {row['calls']:>9d} {row['self_s']:>9.3f} "
                f"{100 * row['share']:>6.1f}%"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting runs until this many seconds passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    key = "per_layer" if args.trace else "end_to_end"
    workloads = args.workload or list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)

    results: Dict[str, Any] = {
        "schema": "repro-e2e-bench/v1",
        "header": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    for name in workloads:
        report = measure(name, args.seed, args.seconds, bool(args.trace))
        results["workloads"][name] = report
        results["header"].setdefault("backend", report.get("backend"))
        print_report(name, report, metrics, key)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"results: {args.out}")

    reports = results["workloads"]
    line: Dict[str, Any] = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {},
    }
    for name, report in reports.items():
        values = report.get(key, {})
        for metric in metrics:
            if metric["name"] not in values:
                continue
            label = metric["name"] if len(reports) == 1 else f"{name}/{metric['name']}"
            line["metrics"][label] = {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
