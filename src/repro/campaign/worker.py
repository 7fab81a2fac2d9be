"""Campaign worker processes: heartbeat-emitting item execution.

:func:`run_item` is the single place a work item turns into ATPG results —
the runner calls it inline in single-worker mode and
:func:`worker_main` calls it inside each forked worker process, so both
execution modes produce byte-identical payloads.  Each item builds its own
:class:`~repro.hybrid.driver.HybridTestGenerator` restricted to the item's
fault shard and runs the spec's schedule under the item's wall-clock
deadline; the worker's heartbeat thread keeps beaconing while the (single
threaded, GIL-holding) ATPG loop runs, so the parent can tell a slow item
from a dead process.

Pooled workers run the ``(item, attempt)`` pairs their task queue hands
them, in order, until they read ``None``; the parent keeps at most one
unstarted pair queued per worker.  Every artifact an item needs (compiled
circuit, SCOAP, collapsed faults, the knowledge preload) is served from
the parent's pre-fork warm state (:mod:`repro.campaign.warm`) when
present, so a per-fault item pays only for solving.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..clock import monotonic
from ..hybrid.driver import HybridTestGenerator
from ..circuits.resolve import resolve_circuit
from ..knowledge import (
    KnowledgeError,
    StateKnowledge,
    load_store_for,
    model_fingerprint,
)
from ..policy.model import FaultPolicy, PolicyError
from ..policy.schedule import PolicyPlan
from ..telemetry import TelemetryRecorder
from . import warm
from .queue import WorkItem, _hash_faults, shard_faults
from .spec import CampaignError, CampaignSpec


@dataclass
class ItemOutcome:
    """Durable result payload of one completed work item.

    Everything the merge stage and the journal need: the accepted vectors
    with their block offsets, the per-shard dispositions, the item's
    ``repro-run-report/v1`` document, and the item's serialized
    ``repro-knowledge/v1`` store (so the merge stage can union knowledge
    across shards and resumes can replay it from the journal).
    """

    item_id: str
    circuit: str
    seed: int
    vectors: List[List[int]] = field(default_factory=list)
    blocks: List[int] = field(default_factory=list)
    detected: List[str] = field(default_factory=list)
    untestable: List[str] = field(default_factory=list)
    total_faults: int = 0
    timed_out: bool = False
    report: Optional[Dict[str, Any]] = None
    knowledge: Optional[Dict[str, Any]] = None
    knowledge_stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _item_knowledge(
    spec: CampaignSpec,
    circuit_name: str,
    warm_circuit: Optional[warm.CircuitWarmState],
) -> "bool | StateKnowledge":
    """The knowledge store one item should run with.

    Each item owns a private store, optionally preloaded from the spec's
    fixed sidecar, so reruns and resumes reproduce results exactly.
    """
    if not spec.knowledge:
        return False
    preloaded: Optional[StateKnowledge] = None
    if warm_circuit is not None:
        preloaded = warm_circuit.knowledge_store()
    elif spec.knowledge_file:
        try:
            preloaded = load_store_for(
                spec.knowledge_file,
                circuit_name,
                model_fingerprint("unconstrained", spec.fault_model),
            )
        except (OSError, KnowledgeError):
            preloaded = None  # an accelerator, never a failed item
    if preloaded is not None:
        return preloaded
    return True


def _item_policy(
    spec: CampaignSpec,
    warm_circuit: Optional[warm.CircuitWarmState],
) -> "PolicyPlan | FaultPolicy | None":
    """The scheduling policy one item's driver should run under.

    Warm items get the plan precomputed at warm-build time; cold items
    load the artifact and let the driver build an identical plan (plan
    construction is deterministic, so both paths agree bit for bit).
    An unreadable artifact fails the item: the policy is named by the
    spec and affects results, unlike the knowledge accelerator.
    """
    if not spec.policy_file:
        return None
    if warm_circuit is not None:
        return warm_circuit.policy_plan
    try:
        return FaultPolicy.load(spec.policy_file)
    except PolicyError as exc:
        raise CampaignError(str(exc)) from exc


def run_item(
    spec: CampaignSpec,
    item: WorkItem,
    clock: Optional[Callable[[], float]] = None,
) -> ItemOutcome:
    """Execute one work item; deterministic given the item's seed.

    Raises :class:`CampaignError` when the circuit's current fault list no
    longer matches the hash recorded when the campaign was planned (code
    or netlist drift between run and resume would silently grade the
    wrong faults otherwise).
    """
    if spec.synthetic_item_seconds is not None:
        # drill mode: a fixed-cost stand-in for ATPG work, so benchmarks
        # measure the orchestration layer itself
        time.sleep(spec.synthetic_item_seconds)
        return ItemOutcome(
            item_id=item.item_id,
            circuit=item.circuit,
            seed=item.seed,
            total_faults=item.count,
        )
    tick = clock or monotonic
    warm_state = warm.active_for(spec)
    warm_circuit = warm_state.get(item.circuit) if warm_state else None
    if warm_circuit is not None:
        circuit = warm_circuit.circuit
    else:
        circuit = resolve_circuit(item.circuit)
    faults = shard_faults(spec, item.circuit)
    shard = faults[item.start : item.start + item.count]
    if _hash_faults(shard) != item.fault_hash:
        raise CampaignError(
            f"{item.item_id}: fault shard drifted since the campaign was "
            f"planned (hash mismatch) — start a fresh campaign"
        )
    knowledge = _item_knowledge(spec, circuit.name, warm_circuit)
    policy = _item_policy(spec, warm_circuit)
    # policy-steered items carry a real recorder so the campaign report
    # rolls up the atpg.policy.* counters (reorders, skips, deferrals);
    # plain items keep the no-op recorder and their payloads unchanged
    recorder = TelemetryRecorder() if spec.policy_file else None
    driver = HybridTestGenerator(
        circuit,
        seed=item.seed,
        width=spec.width,
        faults=shard,
        backend=spec.backend,
        generator_name="HITEC" if spec.baseline else "GA-HITEC",
        clock=clock,
        knowledge=knowledge,
        testability=(
            warm_circuit.testability if warm_circuit is not None else None
        ),
        policy=policy,
        telemetry=recorder,
        fault_model=spec.fault_model,
    )
    deadline = (
        tick() + spec.item_timeout_s
        if spec.item_timeout_s is not None
        else None
    )
    result = driver.run(spec.schedule_for(circuit), deadline=deadline)
    return ItemOutcome(
        item_id=item.item_id,
        circuit=item.circuit,
        seed=item.seed,
        vectors=[list(v) for v in result.test_set],
        blocks=list(result.blocks),
        detected=sorted(str(f) for f in result.detected),
        untestable=sorted(str(f) for f in result.untestable),
        total_faults=item.count,
        timed_out=result.deadline_expired,
        report=result.report.to_dict() if result.report else None,
        knowledge=(
            driver.knowledge.to_dict()
            if driver.knowledge is not None
            and (len(driver.knowledge) or driver.knowledge.seed_pool)
            else None
        ),
        knowledge_stats=dict(result.knowledge_stats),
    )


class _Heartbeat(threading.Thread):
    """Beacon thread: emits (worker, item) liveness while an item runs."""

    def __init__(self, result_q, worker_id: int, item_id: str,
                 interval: float):
        super().__init__(daemon=True)
        self._result_q = result_q
        self._worker_id = worker_id
        self._item_id = item_id
        self._interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._result_q.put(
                    ("heartbeat", self._worker_id, self._item_id, None)
                )
            except Exception:
                return  # parent gone; the worker is about to die anyway

    def stop(self) -> None:
        """Ask the beacon to exit; safe to call more than once."""
        self._halt.set()


def worker_main(
    worker_id: int,
    task_q,
    result_q,
    spec_data: Dict[str, Any],
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker-process entry point: run queued items until poisoned.

    Messages from the parent (all on ``task_q``):

    * ``(item, attempt)`` — run this item next.
    * ``None`` — exit.

    Messages back to the parent (all on ``result_q``):

    * ``("started", worker_id, item_id, (attempt, pid))``
    * ``("heartbeat", worker_id, item_id, None)``
    * ``("done", worker_id, item_id, payload_dict)``
    * ``("failed", worker_id, item_id, error_string)``
    """
    spec = CampaignSpec.from_dict(spec_data)
    while True:
        task = task_q.get()
        if task is None:
            return
        item, attempt = task
        result_q.put(("started", worker_id, item.item_id,
                      (attempt, os.getpid())))
        beacon = _Heartbeat(result_q, worker_id, item.item_id,
                            heartbeat_interval)
        beacon.start()
        try:
            outcome = run_item(spec, item)
            result_q.put(("done", worker_id, item.item_id,
                          outcome.to_dict()))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            result_q.put(("failed", worker_id, item.item_id,
                          f"{type(exc).__name__}: {exc}"))
        finally:
            beacon.stop()
            beacon.join(timeout=2.0)
