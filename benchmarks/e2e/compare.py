"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py [--claim METRIC:WORKLOAD]... \\
        A1.json A2.json ... -- B1.json B2.json ...

``A`` is the baseline (the parent commit), ``B`` the change; each file is
one ``run.py --out`` document.  For every (metric, workload) the tool
prints each side's median and quartiles and applies the metric's bound
from ``BENCHMARK.json``:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own spread (interquartile range over median)
  is wider than the bound, unless every B run beats every A run;
* ``ok`` otherwise; per-layer metrics have no bound and print ``info``.

Runs of the same workload and seed must detect the same faults: a
changed detected-set hash is flagged.  ``--claim`` names a metric the
change claims to improve; for it the tool pairs the i-th A file with the
i-th B file and reports the win rate, ties counting for neither side.  A
claim holds when B wins at least nine tenths of the pairs and the medians
differ by more than A's interquartile range.  The exit status is 1 when a
regression or a changed detected set was found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: (workload, metric) -> one value per results file
Series = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]) -> List[Dict[str, Any]]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def series(docs: List[Dict[str, Any]]) -> Series:
    out: Series = {}
    for doc in docs:
        for workload, report in doc["workloads"].items():
            for key in ("end_to_end", "per_layer"):
                for metric, value in report.get(key, {}).items():
                    out.setdefault((workload, metric), []).append(value)
    return out


def hashes(docs: List[Dict[str, Any]]) -> Dict[Tuple[str, int], set]:
    """(workload, seed) -> detected-set hashes seen."""
    out: Dict[Tuple[str, int], set] = {}
    for doc in docs:
        seed = doc["header"]["seed"]
        for workload, report in doc["workloads"].items():
            if "detected_sha256" in report:
                out.setdefault((workload, seed), set()).add(report["detected_sha256"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    delta = b - a if better == "lower" else a - b
    if a == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")
    return delta / abs(a)


def beats(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict(a: List[float], b: List[float], better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "info"
    if max(spread(a), spread(b)) > bound:
        if all(beats(y, x, better) for x in a for y in b):
            return "better"
        return "unresolved"
    if worsening(quartiles(a)[1], quartiles(b)[1], better) > bound:
        return "REGRESSION"
    return "ok"


def claim(a: List[float], b: List[float], better: str) -> Tuple[int, int, bool]:
    """(wins, pairs, holds) for B improving on A, pairing by position."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x, better))
    q1, a_med, q3 = quartiles(a)
    b_med = quartiles(b)[1]
    holds = (
        bool(pairs)
        and wins >= 0.9 * len(pairs)
        and beats(b_med, a_med, better)
        and abs(a_med - b_med) > q3 - q1
    )
    return wins, len(pairs), holds


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: compare.py [--claim METRIC:WORKLOAD]... A.json... -- B.json...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--claim", action="append", default=[],
                        help="METRIC:WORKLOAD the change claims to improve")
    parser.add_argument("baseline", nargs="+")
    args = parser.parse_args(argv[:split])
    changed = argv[split + 1:]
    if not changed:
        parser.error("no results after --")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    docs_a, docs_b = load(args.baseline), load(changed)
    a, b = series(docs_a), series(docs_b)

    failed = False
    print(f"{'workload':<20s} {'metric':<34s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        info = spec.get(metric, {"better": "lower"})
        bound = info.get("bound")
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change = f"{100 * (qb[1] - qa[1]) / qa[1]:+.1f}%" if qa[1] else "-"
        limit = f"{100 * bound:.0f}%" if bound is not None else "-"
        result = verdict(a[key], b[key], info["better"], bound)
        failed |= result == "REGRESSION"
        print(f"{workload:<20s} {metric:<34s} {_fmt(qa):>30s} {_fmt(qb):>30s} "
              f"{change:>8s} {limit:>6s}  {result}")

    ha, hb = hashes(docs_a), hashes(docs_b)
    for key in sorted(set(ha) & set(hb)):
        if ha[key] != hb[key]:
            failed = True
            print(f"DETECTED SET CHANGED: {key[0]} seed {key[1]}: "
                  f"{sorted(ha[key])} -> {sorted(hb[key])}")

    for text in args.claim:
        metric, _, workload = text.partition(":")
        key = (workload, metric)
        if key not in a or key not in b:
            print(f"claim {text}: no such metric in both sides")
            continue
        wins, pairs, holds = claim(a[key], b[key], spec[metric]["better"])
        print(f"claim {text}: B wins {wins}/{pairs} pairs "
              f"({100 * wins / pairs:.0f}%) -> {'met' if holds else 'not met'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
