"""Structured run reports: a complete ATPG campaign as one JSON document.

A :class:`RunReport` captures everything Table II/III summarises plus the
diagnostics the paper's authors used internally: per-pass statistics,
per-fault dispositions (which pass resolved each fault, how, at what
backtrack/time cost), simulation volume, and the full metrics snapshot of
the run's :class:`~repro.telemetry.metrics.MetricsRegistry`.  Reports
serialize to a versioned JSON schema (``repro-run-report/v1``) that the CI
benchmark gates consume; :func:`validate_report` checks a document against
it and :func:`diff_reports` compares two campaigns field by field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Identifier embedded in every serialized report.
SCHEMA = "repro-run-report/v1"

#: Allowed per-fault disposition statuses.  ``prefiltered`` is written by
#: no current code; it stays so reports from earlier versions, whose
#: driver could prove faults untestable before pass 1, still validate.
FAULT_STATUSES = ("detected", "untestable", "aborted", "prefiltered")

#: Allowed per-fault justification labels.
JUSTIFICATIONS = ("ga", "deterministic", "none")


@dataclass
class FaultRecord:
    """Final disposition of one target fault across the whole campaign.

    Attributes:
        fault: printable fault name (site and stuck value).
        status: one of :data:`FAULT_STATUSES`.
        pass_number: pass that resolved the fault (last pass that targeted
            it for ``aborted``; 0 for ``prefiltered`` in older reports).
        targeted: how many passes targeted this fault explicitly.
        time_s: wall-clock seconds spent targeting it.
        backtracks: PODEM backtracks spent on it.
        justification: how its accepted test's state was justified
            (``"none"`` when no test was accepted or none was needed).
        ga_generations: GA generations evolved while targeting it.
        incidental: detected by another fault's test, never by its own.
        features: static per-fault feature dict recorded by the driver
            (see :data:`repro.policy.features.FEATURE_NAMES`), making
            reports self-contained policy training data.  ``None`` on
            reports predating the field — readers must tolerate both.
        knowledge_hits: knowledge-store hits (justified + unjustifiable
            + PODEM prunes) credited while targeting this fault.
    """

    fault: str
    status: str
    pass_number: int = 0
    targeted: int = 0
    time_s: float = 0.0
    backtracks: int = 0
    justification: str = "none"
    ga_generations: int = 0
    incidental: bool = False
    features: Optional[Dict[str, float]] = None
    knowledge_hits: int = 0


@dataclass
class PassReport:
    """One pass through the fault list (non-cumulative view).

    ``detected_new`` counts targeted *and* incidental detections credited
    during the pass; ``untestable_new`` counts faults proven untestable in
    it; ``time_s`` is the duration of this pass alone.
    """

    number: int
    approach: str
    targeted: int = 0
    detected_new: int = 0
    untestable_new: int = 0
    aborted: int = 0
    ga_justified: int = 0
    det_justified: int = 0
    validation_failures: int = 0
    time_s: float = 0.0


@dataclass
class RunReport:
    """Serializable record of one multi-pass test-generation campaign."""

    circuit: str
    generator: str
    total_faults: int
    schema: str = SCHEMA
    seed: Optional[int] = None
    backend: Optional[str] = None
    #: fault model the campaign targeted; serialized only when
    #: non-default, so stuck-at report payloads stay byte-identical to
    #: documents written before the field existed
    fault_model: str = "stuck_at"
    jobs: int = 1
    width: int = 64
    detected: int = 0
    untestable: int = 0
    vectors: int = 0
    fault_coverage: float = 0.0
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    kernel_compiles: int = 0
    kernel_compile_s: float = 0.0
    passes: List[PassReport] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        if self.fault_model == "stuck_at":
            del data["fault_model"]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Build a report from a parsed document, validating it first."""
        problems = validate_report(data)
        if problems:
            raise ValueError("invalid run report: " + "; ".join(problems[:5]))
        passes = [PassReport(**p) for p in data.get("passes", [])]
        faults = [FaultRecord(**f) for f in data.get("faults", [])]
        scalars = {
            key: value
            for key, value in data.items()
            if key not in ("passes", "faults")
        }
        return cls(passes=passes, faults=faults, **scalars)

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # -- rendering -----------------------------------------------------
    def summary(self) -> str:
        """Human-readable multi-line digest of the campaign."""
        lines = [
            f"{self.circuit} ({self.generator}): {self.total_faults} faults, "
            f"backend={self.backend or 'default'}, jobs={self.jobs}, "
            f"seed={self.seed}",
            f"  coverage {100.0 * self.fault_coverage:.1f}%  "
            f"vectors {self.vectors}  untestable {self.untestable}  "
            f"wall {self.wall_time_s:.2f}s  cpu {self.cpu_time_s:.2f}s",
        ]
        for p in self.passes:
            lines.append(
                f"  pass {p.number} [{p.approach:>13s}] "
                f"targeted {p.targeted:>4d}  +det {p.detected_new:>4d}  "
                f"+unt {p.untestable_new:>3d}  aborted {p.aborted:>4d}  "
                f"ga/det justified {p.ga_justified}/{p.det_justified}  "
                f"{p.time_s:.2f}s"
            )
        by_status: Dict[str, int] = {}
        for record in self.faults:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        dispositions = ", ".join(
            f"{status}={by_status[status]}"
            for status in FAULT_STATUSES
            if status in by_status
        )
        lines.append(f"  dispositions: {dispositions or 'none recorded'}")
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("  counters:")
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<32s} {value}")
        return "\n".join(lines)


def _problem(problems: List[str], condition: bool, message: str) -> None:
    if condition:
        problems.append(message)


def validate_report(data: Any) -> List[str]:
    """Check a parsed document against the v1 report schema.

    Returns a list of human-readable problems; an empty list means the
    document is schema-valid.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["report must be a JSON object"]
    _problem(
        problems,
        data.get("schema") != SCHEMA,
        f"schema must be {SCHEMA!r}, got {data.get('schema')!r}",
    )
    for key, types in (
        ("circuit", str),
        ("generator", str),
        ("total_faults", int),
        ("detected", int),
        ("untestable", int),
        ("vectors", int),
        ("jobs", int),
        ("width", int),
        ("fault_coverage", (int, float)),
        ("wall_time_s", (int, float)),
        ("cpu_time_s", (int, float)),
        ("passes", list),
        ("faults", list),
        ("metrics", dict),
    ):
        if key not in data:
            problems.append(f"missing key {key!r}")
        elif not isinstance(data[key], types) or isinstance(data[key], bool):
            problems.append(f"key {key!r} has wrong type")
    for index, entry in enumerate(data.get("passes") or []):
        if not isinstance(entry, dict):
            problems.append(f"passes[{index}] is not an object")
            continue
        for key in ("number", "approach", "targeted", "detected_new"):
            _problem(
                problems,
                key not in entry,
                f"passes[{index}] missing {key!r}",
            )
    for index, entry in enumerate(data.get("faults") or []):
        if not isinstance(entry, dict):
            problems.append(f"faults[{index}] is not an object")
            continue
        _problem(
            problems,
            entry.get("status") not in FAULT_STATUSES,
            f"faults[{index}] has unknown status {entry.get('status')!r}",
        )
        _problem(
            problems,
            entry.get("justification") not in JUSTIFICATIONS,
            f"faults[{index}] has unknown justification "
            f"{entry.get('justification')!r}",
        )
        _problem(
            problems,
            not isinstance(entry.get("fault"), str),
            f"faults[{index}] missing fault name",
        )
        features = entry.get("features")
        _problem(
            problems,
            features is not None
            and (
                not isinstance(features, dict)
                or any(
                    not isinstance(key, str)
                    or isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    for key, value in features.items()
                )
            ),
            f"faults[{index}] features must be a name->number object",
        )
    return problems


def _uniform(values: List[Any]) -> Any:
    """The single common value, or ``None`` when reports disagree."""
    distinct = set(values)
    return values[0] if len(distinct) == 1 else None


def merge_run_reports(
    reports: List[RunReport],
    circuit: str = "campaign",
    generator: Optional[str] = None,
    prefix_faults: bool = True,
) -> RunReport:
    """Roll many per-item run reports into one campaign-level report.

    Totals, per-pass statistics (aggregated by pass number and approach),
    fault dispositions, and metrics counters are summed across the input
    reports; wall/CPU time sum to the campaign's aggregate compute cost
    (the orchestrator's elapsed wall clock is a different number, which a
    campaign runner sets on the merged report afterwards).  Fault names
    are prefixed with their source circuit when ``prefix_faults`` so
    same-named faults from different circuits stay distinguishable.

    Detection totals here are the per-item sums; a campaign merge stage
    that re-grades tests across shards overwrites ``detected``,
    ``vectors``, and ``fault_coverage`` with the cross-credited truth.

    Disposition ordering is deterministic regardless of the order the
    input reports arrive in: source reports are visited sorted by
    (circuit, first fault name, seed) — a content-derived key — with
    each report's own record order preserved, so merges of the same
    item results always serialize byte-identically (policy training
    and report diffing rely on this).
    """
    if not reports:
        raise ValueError("cannot merge zero reports")
    merged = RunReport(
        circuit=circuit,
        generator=generator or _uniform([r.generator for r in reports]) or "campaign",
        total_faults=sum(r.total_faults for r in reports),
        seed=_uniform([r.seed for r in reports]),
        backend=_uniform([r.backend for r in reports]),
        fault_model=_uniform([r.fault_model for r in reports]) or "stuck_at",
        jobs=max(r.jobs for r in reports),
        width=_uniform([r.width for r in reports]) or reports[0].width,
        detected=sum(r.detected for r in reports),
        untestable=sum(r.untestable for r in reports),
        vectors=sum(r.vectors for r in reports),
        wall_time_s=sum(r.wall_time_s for r in reports),
        cpu_time_s=sum(r.cpu_time_s for r in reports),
        kernel_compiles=sum(r.kernel_compiles for r in reports),
        kernel_compile_s=sum(r.kernel_compile_s for r in reports),
    )
    merged.fault_coverage = (
        merged.detected / merged.total_faults if merged.total_faults else 0.0
    )
    by_pass: Dict[Tuple[int, str], PassReport] = {}
    for report in reports:
        for p in report.passes:
            agg = by_pass.get((p.number, p.approach))
            if agg is None:
                agg = by_pass[(p.number, p.approach)] = PassReport(
                    number=p.number, approach=p.approach
                )
            agg.targeted += p.targeted
            agg.detected_new += p.detected_new
            agg.untestable_new += p.untestable_new
            agg.aborted += p.aborted
            agg.ga_justified += p.ga_justified
            agg.det_justified += p.det_justified
            agg.validation_failures += p.validation_failures
            agg.time_s += p.time_s
    merged.passes = [by_pass[key] for key in sorted(by_pass)]

    def _fault_order(report: RunReport) -> Tuple[str, str, str]:
        first = report.faults[0].fault if report.faults else ""
        return (report.circuit, first, str(report.seed))

    for report in sorted(reports, key=_fault_order):
        for record in report.faults:
            copy = FaultRecord(**asdict(record))
            if prefix_faults:
                copy.fault = f"{report.circuit}:{record.fault}"
            merged.faults.append(copy)
    counters: Dict[str, float] = {}
    for report in reports:
        for name, value in report.metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    if counters:
        merged.metrics = {"counters": counters}
    return merged


#: Scalar fields compared by :func:`diff_reports`.
_DIFF_FIELDS = (
    "total_faults",
    "detected",
    "untestable",
    "vectors",
    "fault_coverage",
    "wall_time_s",
    "cpu_time_s",
    "kernel_compiles",
)


def diff_reports(
    new: RunReport, old: RunReport
) -> Dict[str, Tuple[float, float, float]]:
    """Field-by-field comparison: name -> (new, old, new - old).

    Covers the scalar campaign fields plus every counter present in
    either report's metrics snapshot (missing counters count as 0).
    """
    out: Dict[str, Tuple[float, float, float]] = {}
    for name in _DIFF_FIELDS:
        a = getattr(new, name)
        b = getattr(old, name)
        out[name] = (a, b, a - b)
    new_counters = new.metrics.get("counters", {})
    old_counters = old.metrics.get("counters", {})
    for name in sorted(set(new_counters) | set(old_counters)):
        a = new_counters.get(name, 0)
        b = old_counters.get(name, 0)
        out[f"counters.{name}"] = (a, b, a - b)
    return out


def render_diff(
    new: RunReport, old: RunReport, only_changed: bool = False
) -> str:
    """Render :func:`diff_reports` as an aligned text table."""
    rows = diff_reports(new, old)
    lines = [
        f"run report diff: {new.circuit}/{new.generator} "
        f"vs {old.circuit}/{old.generator}",
        f"{'field':<40s} {'new':>12s} {'old':>12s} {'delta':>12s}",
    ]
    for name, (a, b, delta) in rows.items():
        if only_changed and delta == 0:
            continue
        lines.append(f"{name:<40s} {a:>12.4g} {b:>12.4g} {delta:>+12.4g}")
    return "\n".join(lines)
