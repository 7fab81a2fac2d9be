"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``stats``     — print a circuit's interface/size statistics.
``faults``    — enumerate the (collapsed) stuck-at fault list.
``atpg``      — run GA-HITEC (or the HITEC baseline) and write the tests
(alias: ``run-hybrid``); ``--telemetry`` saves a structured run report,
``--trace`` saves span trace events as JSONL.
``report``    — pretty-print a saved run report, or diff two of them;
``--json`` emits the same information machine-readably and
``--dispositions`` exports the per-fault rows as JSONL.
``train-policy`` — fit a ``repro-policy/v1`` scheduling policy (see
``docs/POLICY.md``) from saved run reports; apply it with
``atpg --policy`` or ``campaign run --policy``.
``campaign``  — durable multi-circuit campaigns: ``campaign run`` executes
a :class:`~repro.campaign.CampaignSpec` across worker processes with a
journal, ``campaign resume`` continues a killed campaign, and
``campaign status`` summarises a journal.
``serve``     — run the campaign service: HTTP job submission, SSE
progress streams, report retrieval (see ``docs/SERVICE.md``).
``faultsim``  — grade an existing vector file against the fault list.
``convert``   — translate between ``.bench`` and structural Verilog.
``scan``      — insert a full-scan chain and write the scanned netlist.
``diagnose``  — rank candidate faults against observed tester failures.

Circuits are either ``.bench`` files or names of built-in benchmarks
(``s27``, ``s298`` …, ``am2910``, ``div``, ``mult``, ``pcont2``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Callable, List, Optional

from .analysis.compaction import compact_test_set
from .analysis.coverage import evaluate_test_set
from .analysis.diagnosis import FaultDictionary
from .campaign import CampaignError, CampaignRunner, CampaignSpec
from .circuit.bench import save_bench
from .circuit.scan import insert_scan
from .circuit.verilog import save_verilog
from .circuits.resolve import resolve_circuit
from .faults.collapse import collapse_faults
from .faults.model import (
    FaultModelError,
    fault_model_names,
    fault_site_known,
    parse_fault,
)
from .hybrid.driver import gahitec, hitec_baseline
from .hybrid.passes import gahitec_schedule, hitec_schedule
from .knowledge import load_store_for, model_fingerprint, save_knowledge
from .policy import FaultPolicy, PolicyError, dataset_from_reports, train_policy
from .simulation import resolve_backend
from .telemetry import RunReport, TelemetryRecorder, diff_reports, render_diff

__all__ = ["build_parser", "main", "resolve_circuit"]


def _read_vectors(path: str, n_pi: int) -> List[List[int]]:
    """Read one vector per line, characters 0/1/x in PI order."""
    vectors = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if len(line) != n_pi:
                raise SystemExit(
                    f"{path}:{line_no}: expected {n_pi} bits, got {len(line)}"
                )
            vectors.append(
                [2 if ch in "xX" else int(ch) for ch in line]
            )
    return vectors


def _write_vectors(path: str, vectors: List[List[int]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for vec in vectors:
            handle.write("".join("x" if v == 2 else str(v) for v in vec) + "\n")


def _expected_errors(
    *exceptions: type,
) -> Callable[[Callable[[argparse.Namespace], int]],
              Callable[[argparse.Namespace], int]]:
    """Turn anticipated failures into a one-line stderr message, exit 2.

    A missing journal, a torn-beyond-repair file, or a malformed report is
    an operator mistake, not a bug — the command must fail loudly but
    without a traceback (and the service maps the same exceptions to HTTP
    4xx instead of 500).
    """

    def decorate(
        func: Callable[[argparse.Namespace], int]
    ) -> Callable[[argparse.Namespace], int]:
        @functools.wraps(func)
        def wrapper(args: argparse.Namespace) -> int:
            try:
                return func(args)
            except exceptions as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

        return wrapper

    return decorate


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    print(f"{circuit.name}:")
    for key, value in circuit.stats().items():
        print(f"  {key:<16s} {value}")
    full = len(collapse_faults(circuit))
    print(f"  {'collapsed faults':<16s} {full}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    for fault in collapse_faults(circuit, args.fault_model):
        print(fault)
    return 0


def _target_faults(args: argparse.Namespace, circuit) -> Optional[List]:
    """The explicit ``--fault`` targets, validated against the circuit.

    Every named fault must parse under the model-qualified grammar,
    belong to the run's fault model, and name a real site; ``None``
    means no filter (the collapsed universe).
    """
    if not args.fault:
        return None
    targets = []
    for text in args.fault:
        try:
            fault = parse_fault(text)
        except FaultModelError as exc:
            raise SystemExit(f"--fault {text!r}: {exc}")
        if fault.model != args.fault_model:
            raise SystemExit(
                f"--fault {text!r} is a {fault.model} fault but the run "
                f"targets {args.fault_model} (use --fault-model)"
            )
        if not fault_site_known(circuit, fault):
            raise SystemExit(
                f"--fault {text!r}: no such site in {circuit.name}"
            )
        targets.append(fault)
    return targets


@_expected_errors(PolicyError)
def cmd_atpg(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    faults = _target_faults(args, circuit)
    x = args.seq_len or max(4, 4 * circuit.sequential_depth)
    recorder = None
    if args.telemetry or args.trace:
        recorder = TelemetryRecorder(trace=bool(args.trace))
    policy = FaultPolicy.load(args.policy) if args.policy else None
    if policy is not None and not policy.covers(circuit.name):
        print(f"note: {args.policy} was trained on "
              f"{', '.join(policy.circuits)}; {circuit.name} runs the "
              f"static schedule")
    knowledge: object = not args.no_knowledge
    if knowledge and args.knowledge_in:
        preloaded = load_store_for(
            args.knowledge_in, circuit.name,
            model_fingerprint("unconstrained", args.fault_model))
        if preloaded is None:
            print(f"note: {args.knowledge_in} has no knowledge for "
                  f"{circuit.name}; starting fresh")
        else:
            knowledge = preloaded
    if args.baseline:
        driver = hitec_baseline(circuit, seed=args.seed,
                                backend=args.backend,
                                telemetry=recorder, knowledge=knowledge,
                                policy=policy, faults=faults,
                                fault_model=args.fault_model)
        schedule = hitec_schedule(
            num_passes=args.passes,
            time_scale=args.time_scale,
            backtrack_base=args.backtracks,
        )
    else:
        driver = gahitec(circuit, seed=args.seed,
                         backend=args.backend,
                         telemetry=recorder, knowledge=knowledge,
                         policy=policy, faults=faults,
                         fault_model=args.fault_model)
        schedule = gahitec_schedule(
            x=x,
            num_passes=args.passes,
            time_scale=args.time_scale,
            backtrack_base=args.backtracks,
        )
    if args.prefilter:
        proven = driver.prefilter_untestable()
        print(f"prefilter: {len(proven)} faults proven untestable")
    result = driver.run(schedule)
    print(result.summary())
    vectors = result.test_set
    if args.compact and vectors:
        compacted = compact_test_set(
            circuit, vectors, list(result.detected.values())
        )
        print(f"compaction: {compacted.original_vectors} -> "
              f"{compacted.compacted_vectors} vectors")
        vectors = compacted.vectors
    if args.output:
        _write_vectors(args.output, vectors)
        print(f"wrote {len(vectors)} vectors to {args.output}")
    if args.telemetry and result.report is not None:
        result.report.save(args.telemetry)
        print(f"wrote telemetry report to {args.telemetry}")
    if args.trace and recorder is not None:
        recorder.save_trace(args.trace)
        print(f"wrote {len(recorder.trace_events)} trace events "
              f"to {args.trace}")
    if result.knowledge_stats:
        hits = (result.knowledge_stats.get("justified_hits", 0)
                + result.knowledge_stats.get("unjustifiable_hits", 0))
        print(f"knowledge: {hits} hits, "
              f"{result.knowledge_stats.get('records', 0)} facts recorded, "
              f"{result.knowledge_stats.get('ga_seeded', 0)} GA seeds used")
    if args.knowledge_out and driver.knowledge is not None:
        save_knowledge({circuit.name: driver.knowledge}, args.knowledge_out)
        print(f"wrote {len(driver.knowledge)} knowledge entries "
              f"to {args.knowledge_out}")
    return 0


@_expected_errors(OSError, ValueError, KeyError)
def cmd_report(args: argparse.Namespace) -> int:
    new = RunReport.load(args.report)
    if args.dispositions:
        with open(args.dispositions, "w", encoding="utf-8") as handle:
            for record in new.faults:
                handle.write(json.dumps(
                    dataclasses.asdict(record), sort_keys=True) + "\n")
        print(f"wrote {len(new.faults)} fault dispositions "
              f"to {args.dispositions}")
        if not (args.against or args.json):
            return 0
    if args.against:
        old = RunReport.load(args.against)
        if args.json:
            rows = diff_reports(new, old)
            payload = {
                "schema": "repro-report-diff/v1",
                "new": {"circuit": new.circuit, "generator": new.generator},
                "old": {"circuit": old.circuit, "generator": old.generator},
                "fields": {
                    name: {"new": a, "old": b, "delta": delta}
                    for name, (a, b, delta) in rows.items()
                    if not args.changed_only or delta
                },
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render_diff(new, old, only_changed=args.changed_only))
    elif args.json:
        print(json.dumps(new.to_dict(), indent=2, sort_keys=True))
    else:
        print(new.summary())
    return 0


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        spec = CampaignSpec.load(args.spec)
        if args.circuits:
            raise SystemExit("give circuits inline or via --spec, not both")
        return spec
    if not args.circuits:
        raise SystemExit("campaign run needs circuits or --spec FILE")
    return CampaignSpec(
        circuits=tuple(args.circuits),
        name=args.name,
        seed=args.seed,
        shard_size=args.shard_size,
        passes=args.passes,
        seq_len=args.seq_len,
        time_scale=args.time_scale,
        backtracks=args.backtracks,
        justify_depth=args.justify_depth,
        baseline=args.baseline,
        backend=args.backend,
        fault_limit=args.fault_limit,
        item_timeout_s=args.item_timeout,
        max_attempts=args.max_attempts,
        knowledge=not args.no_knowledge,
        knowledge_file=args.knowledge_from,
        policy_file=args.policy,
        fault_model=args.fault_model,
    )


def _finish_campaign(result, args: argparse.Namespace) -> int:
    print(result.summary())
    if result.knowledge:
        entries = sum(len(s) for s in result.knowledge.values())
        print(f"knowledge: {entries} facts learned across "
              f"{len(result.knowledge)} circuit(s) "
              f"(sidecar next to the journal)")
    if args.report:
        if result.report is not None:
            result.report.save(args.report)
            print(f"wrote campaign report to {args.report}")
        else:
            print("no telemetry reports to merge; skipped --report")
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for name, circuit_result in sorted(result.circuits.items()):
            base = os.path.basename(name).replace(".bench", "")
            path = os.path.join(args.output_dir, f"{base}.vec")
            _write_vectors(path, circuit_result.vectors)
            print(f"wrote {len(circuit_result.vectors)} vectors to {path}")
    return 1 if result.items_failed else 0


@_expected_errors(OSError, PolicyError, ValueError)
def cmd_train_policy(args: argparse.Namespace) -> int:
    dataset = dataset_from_reports(args.reports)
    if not dataset.rows:
        raise PolicyError(
            "no trainable fault dispositions in the given reports"
        )
    options = {"shrink_ga": True} if args.shrink_ga else None
    policy = train_policy(dataset, rounds=args.rounds, options=options)
    policy.save(args.output)
    print(f"dataset: {dataset.summary()}")
    xs = dataset.matrix()
    rows = dataset.rows
    print(f"fit: detect mae "
          f"{policy.detect.mean_abs_error(xs, [r.detected for r in rows]):.4f}"
          f"  pass mae "
          f"{policy.resolve_pass.mean_abs_error(xs, [r.resolve_pass for r in rows]):.4f}"
          f"  cost mae "
          f"{policy.cost.mean_abs_error(xs, [r.cost for r in rows]):.4f}")
    print(f"wrote policy [{policy.fingerprint}] to {args.output}")
    return 0


@_expected_errors(CampaignError, OSError)
def cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    runner = CampaignRunner(
        spec,
        args.journal,
        workers=args.workers,
        hang_timeout_s=args.hang_timeout,
    )
    return _finish_campaign(runner.run(), args)


@_expected_errors(CampaignError, OSError)
def cmd_campaign_resume(args: argparse.Namespace) -> int:
    if args.spec:
        # catch resuming the wrong journal before any work starts: the
        # journal header's spec is authoritative, --spec merely asserts
        expected = CampaignSpec.load(args.spec).spec_hash()
        actual = CampaignRunner.status(args.journal)["spec_hash"]
        if expected != actual:
            raise CampaignError(
                f"{args.journal}: journal spec hash {actual} does not "
                f"match {args.spec} ({expected})"
            )
    result = CampaignRunner.resume(
        args.journal,
        workers=args.workers,
        hang_timeout_s=args.hang_timeout,
    )
    return _finish_campaign(result, args)


@_expected_errors(CampaignError, OSError)
def cmd_campaign_status(args: argparse.Namespace) -> int:
    status = CampaignRunner.status(args.journal)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"campaign {status['name']} [{status['spec_hash']}]: "
          f"{status['done']}/{status['items']} items done, "
          f"{status['failed']} failed")
    for item_id in status["in_flight"]:
        print(f"  in flight: {item_id}")
    if status["merged"]:
        merged = status["merged"]
        print(f"  merged: coverage {100.0 * merged['fault_coverage']:.1f}%  "
              f"vectors {merged['vectors']}")
    return 0


@_expected_errors(OSError)
def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import serve

    os.makedirs(args.root, exist_ok=True)
    try:
        asyncio.run(
            serve(
                args.root,
                host=args.host,
                port=args.port,
                max_running=args.max_running,
                max_queue=args.max_queue,
                client_quota=args.client_quota,
                workers_per_job=args.workers_per_job,
            )
        )
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    return 0


def cmd_faultsim(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    vectors = _read_vectors(args.vectors, len(circuit.inputs))
    report = evaluate_test_set(circuit, vectors, backend=args.backend,
                               fault_model=args.fault_model)
    print(report)
    if args.list_undetected:
        detected = set(report.detected)
        for fault in collapse_faults(circuit, args.fault_model):
            if fault not in detected:
                print(f"  undetected: {fault}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    if args.output.endswith(".v"):
        save_verilog(circuit, args.output)
    else:
        save_bench(circuit, args.output)
    print(f"wrote {circuit.name} to {args.output}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    scanned, chain = insert_scan(circuit)
    if args.output.endswith(".v"):
        save_verilog(scanned, args.output)
    else:
        save_bench(scanned, args.output)
    print(f"inserted a {chain.length}-bit scan chain; "
          f"wrote {scanned.name} to {args.output}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    vectors = _read_vectors(args.vectors, len(circuit.inputs))
    dictionary = FaultDictionary(circuit, vectors)
    print(f"dictionary: {len(dictionary.detected_faults)} detectable faults, "
          f"resolution {dictionary.diagnostic_resolution():.0%}")
    failures = []
    with open(args.failures, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cycle, po = line.split()
            failures.append((int(cycle), int(po)))
    for rank, cand in enumerate(dictionary.diagnose(failures), 1):
        mark = "exact" if cand.exact else (
            f"{cand.misses} unexplained / {cand.mispredicts} mispredicted"
        )
        names = ", ".join(str(f) for f in cand.faults)
        print(f"  {rank}. [{mark}] {names}")
    return 0


def _add_fault_model_option(p: argparse.ArgumentParser) -> None:
    """The fault-model knob shared by the fault-targeting commands."""
    p.add_argument("--fault-model", choices=fault_model_names(),
                   default="stuck_at",
                   help="registered fault model to target "
                        "(default: stuck_at)")


def _add_sim_options(p: argparse.ArgumentParser) -> None:
    """Simulation-backend options shared by the simulating commands."""
    p.add_argument("--backend", metavar="NAME", default=None,
                   help="simulation backend, 'event' or 'codegen' (default: "
                        "$REPRO_SIM_BACKEND, else 'event' for fault grading "
                        "and 'codegen' for GA fitness; 'codegen' compiles "
                        "per-circuit kernels)")
    p.add_argument("--kernel-cache", metavar="DIR", default=None,
                   help="persist compiled kernels under DIR so warm "
                        "runs and campaign workers skip compilation "
                        "(default: $REPRO_KERNEL_CACHE, unset disables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GA-HITEC hybrid sequential-circuit test generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="circuit statistics")
    p.add_argument("circuit", help=".bench file or built-in name")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("faults", help="list the collapsed fault universe")
    p.add_argument("circuit")
    _add_fault_model_option(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "atpg", aliases=["run-hybrid"], help="generate tests (GA-HITEC)"
    )
    p.add_argument("circuit")
    p.add_argument("-o", "--output", help="write vectors to this file")
    p.add_argument("--baseline", action="store_true",
                   help="run the deterministic HITEC baseline instead")
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=0,
                   help="GA sequence length x (default: 4 x sequential depth)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-scale", type=float, default=0.05,
                   help="fraction of the paper's per-fault time limits")
    p.add_argument("--backtracks", type=int, default=100,
                   help="pass-1 PODEM backtrack budget")
    p.add_argument("--prefilter", action="store_true",
                   help="prove untestable faults before the GA passes")
    p.add_argument("--compact", action="store_true",
                   help="drop test sequences that add no coverage")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write a structured run report (JSON) to PATH")
    p.add_argument("--trace", metavar="PATH",
                   help="write span trace events (JSONL) to PATH")
    p.add_argument("--no-knowledge", action="store_true",
                   help="disable cross-fault state-knowledge reuse")
    p.add_argument("--knowledge-in", metavar="PATH",
                   help="preload a repro-knowledge/v1 sidecar")
    p.add_argument("--policy", metavar="PATH",
                   help="repro-policy/v1 artifact (see `repro "
                        "train-policy`): reorder faults cheap-first and "
                        "skip passes predicted not to resolve them")
    p.add_argument("--knowledge-out", metavar="PATH",
                   help="write the run's knowledge store to PATH")
    p.add_argument("--fault", action="append", metavar="FAULT",
                   help="target only this fault (model-qualified grammar, "
                        "e.g. 'G10 s-a-1' or 'G5->G7.0 s-t-r'); repeatable")
    _add_fault_model_option(p)
    _add_sim_options(p)
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser(
        "report", help="pretty-print a run report, or diff two reports"
    )
    p.add_argument("report", help="run report JSON written by --telemetry")
    p.add_argument("against", nargs="?", default=None,
                   help="older report to diff against")
    p.add_argument("--changed-only", action="store_true",
                   help="only show fields whose values differ")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of text")
    p.add_argument("--dispositions", metavar="PATH",
                   help="export per-fault dispositions (features, "
                        "resolving pass, cost) as JSONL to PATH")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "train-policy",
        help="train a repro-policy/v1 scheduling policy from run reports",
    )
    p.add_argument("reports", nargs="+",
                   help="repro-run-report/v1 files (from --telemetry or "
                        "campaign --report) to mine for training rows")
    p.add_argument("-o", "--output", required=True,
                   help="write the repro-policy/v1 artifact to this file")
    p.add_argument("--rounds", type=int, default=40,
                   help="boosting rounds per model (default 40)")
    p.add_argument("--shrink-ga", action="store_true",
                   help="also halve GA budgets on predicted-cheap faults "
                        "(off by default: maximally conservative)")
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser(
        "campaign", help="durable, resumable multi-circuit campaigns"
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    def _campaign_runner_options(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--journal", required=True,
                        help="JSONL journal path (durable campaign state)")
        cp.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = inline, no fork)")
        cp.add_argument("--hang-timeout", type=float, default=None,
                        help="kill workers silent for this many seconds")
        cp.add_argument("--report", metavar="PATH",
                        help="write the merged run report (JSON) to PATH")
        cp.add_argument("--output-dir", metavar="DIR",
                        help="write per-circuit vector files into DIR")

    cp = campaign_sub.add_parser("run", help="start a fresh campaign")
    cp.add_argument("circuits", nargs="*",
                    help="circuits (.bench files or built-in names)")
    cp.add_argument("--spec", metavar="PATH",
                    help="load the campaign spec from a JSON file instead")
    cp.add_argument("--name", default="campaign")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--shard-size", type=int, default=1,
                    help="max faults per work item (default 1: per-fault "
                         "items, one at a time to each worker)")
    cp.add_argument("--passes", type=int, default=3)
    cp.add_argument("--seq-len", type=int, default=0,
                    help="GA sequence length x (default: 4 x seq. depth)")
    cp.add_argument("--time-scale", type=float, default=None,
                    help="fraction of the paper's per-fault time limits "
                         "(default none: fully deterministic items)")
    cp.add_argument("--backtracks", type=int, default=100)
    cp.add_argument("--justify-depth", type=int, default=16,
                    help="deterministic reverse-time frame bound "
                         "(shrink for wall-clock-free runs on deep "
                         "circuits)")
    cp.add_argument("--baseline", action="store_true",
                    help="run the HITEC baseline instead of GA-HITEC")
    cp.add_argument("--backend", metavar="NAME", default=None,
                    help="simulation backend, 'event' or 'codegen' "
                         "(default: $REPRO_SIM_BACKEND, else 'event' for "
                         "fault grading and 'codegen' for GA fitness)")
    cp.add_argument("--kernel-cache", metavar="DIR", default=None,
                    help="persist compiled kernels under DIR (workers "
                         "inherit it via $REPRO_KERNEL_CACHE)")
    cp.add_argument("--fault-limit", type=int, default=None,
                    help="cap each circuit's fault list (smoke tests)")
    cp.add_argument("--item-timeout", type=float, default=None,
                    help="per-item wall-clock budget in seconds")
    cp.add_argument("--max-attempts", type=int, default=3,
                    help="attempts per item before it is marked failed")
    cp.add_argument("--no-knowledge", action="store_true",
                    help="disable cross-fault state-knowledge reuse")
    cp.add_argument("--knowledge-from", metavar="PATH",
                    help="preload each item's knowledge store from this "
                         "repro-knowledge/v1 sidecar")
    cp.add_argument("--policy", metavar="PATH", default=None,
                    help="repro-policy/v1 artifact applied to every item "
                         "(cheap-first order + predicted pass skips; the "
                         "final pass always targets everything)")
    _add_fault_model_option(cp)
    _campaign_runner_options(cp)
    cp.set_defaults(func=cmd_campaign_run)

    cp = campaign_sub.add_parser(
        "resume", help="continue a journaled campaign after a crash"
    )
    cp.add_argument("--spec", metavar="PATH",
                    help="assert the journal belongs to this spec file "
                         "(fails fast on a hash mismatch)")
    _campaign_runner_options(cp)
    cp.set_defaults(func=cmd_campaign_resume)

    cp = campaign_sub.add_parser("status", help="summarise a journal")
    cp.add_argument("--journal", required=True)
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=cmd_campaign_status)

    p = sub.add_parser(
        "serve", help="run the campaign service (HTTP + SSE)"
    )
    p.add_argument("--root", required=True,
                   help="service state directory (journals, reports, "
                        "uploads); survives restarts")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8437,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--max-running", type=int, default=2,
                   help="campaigns executed concurrently (default 2)")
    p.add_argument("--max-queue", type=int, default=256,
                   help="queued jobs before submissions get 429")
    p.add_argument("--client-quota", type=int, default=16,
                   help="live jobs allowed per client (default 16)")
    p.add_argument("--workers-per-job", type=int, default=1,
                   help="campaign worker processes per job (default 1)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("faultsim", help="grade a vector file")
    p.add_argument("circuit")
    p.add_argument("vectors", help="file with one 0/1/x vector per line")
    p.add_argument("--list-undetected", action="store_true")
    _add_fault_model_option(p)
    _add_sim_options(p)
    p.set_defaults(func=cmd_faultsim)

    p = sub.add_parser("convert", help="convert between .bench and .v")
    p.add_argument("circuit")
    p.add_argument("output", help="target file (.bench or .v)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("scan", help="insert a full-scan chain")
    p.add_argument("circuit")
    p.add_argument("output", help="target file (.bench or .v)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("diagnose", help="rank faults against tester failures")
    p.add_argument("circuit")
    p.add_argument("vectors", help="the applied test vectors")
    p.add_argument("failures", help="file of failing 'cycle po_index' pairs")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "kernel_cache", None):
        from .simulation import kernel_cache

        kernel_cache.configure(args.kernel_cache)
    if hasattr(args, "backend"):
        # check --backend and $REPRO_SIM_BACKEND before any work starts
        try:
            resolve_backend(args.backend)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
