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
circuit, SCOAP, collapsed faults, the knowledge preload, the policy
plan) comes from the :class:`~repro.campaign.warm.CampaignWarmState` the
runner built before forking and passes to :func:`worker_main` and
:func:`run_item`, so a per-fault item pays only for solving.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..clock import monotonic
from ..hybrid.driver import HybridTestGenerator
from ..knowledge import StateKnowledge
from ..telemetry import TelemetryRecorder
from .queue import WorkItem, _hash_faults
from .spec import CampaignError, CampaignSpec
from .warm import CampaignWarmState


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


def run_item(
    spec: CampaignSpec,
    item: WorkItem,
    warm: CampaignWarmState,
    clock: Optional[Callable[[], float]] = None,
) -> ItemOutcome:
    """Execute one work item; deterministic given the item's seed.

    ``warm`` is the campaign's warm state, built from ``spec``: the item
    reads its circuit, fault shard, knowledge preload and policy plan
    from it.  Each item runs with a private knowledge store, optionally
    preloaded from the spec's fixed sidecar, so reruns and resumes
    reproduce results exactly.  Its driver reads and extends the
    circuit's memo of single-step searches, whose replays are exact, so
    what ran before in this process changes no result.

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
    state = warm.circuits[item.circuit]
    shard = state.faults[item.start : item.start + item.count]
    if _hash_faults(shard) != item.fault_hash:
        raise CampaignError(
            f"{item.item_id}: fault shard drifted since the campaign was "
            f"planned (hash mismatch) — start a fresh campaign"
        )
    # an empty preloaded store is falsy, so test the preload with is None
    preloaded = state.knowledge_store()
    knowledge: "bool | StateKnowledge" = (
        spec.knowledge if preloaded is None else preloaded
    )
    # policy-steered items carry a real recorder so the campaign report
    # rolls up atpg.policy.pass_skips; plain items keep the no-op
    # recorder and a payload without metrics
    recorder = TelemetryRecorder() if spec.policy_file else None
    driver = HybridTestGenerator(
        state.circuit,
        seed=item.seed,
        width=spec.width,
        faults=shard,
        generator_name="HITEC" if spec.baseline else "GA-HITEC",
        clock=clock,
        knowledge=knowledge,
        policy=state.policy_plan,
        telemetry=recorder,
        fault_model=spec.fault_model,
        justify_steps=state.justify_steps,
    )
    deadline = (
        tick() + spec.item_timeout_s
        if spec.item_timeout_s is not None
        else None
    )
    result = driver.run(spec.schedule_for(state.circuit), deadline=deadline)
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
            if driver.knowledge is not None and len(driver.knowledge)
            else None
        ),
        knowledge_stats=dict(result.knowledge_stats),
    )


class _Heartbeat(threading.Thread):
    """Beacon thread: emits (worker, item) liveness while an item runs."""

    def __init__(self, send: Callable[[tuple], None], worker_id: int,
                 item_id: str, interval: float):
        super().__init__(daemon=True)
        self._send = send
        self._worker_id = worker_id
        self._item_id = item_id
        self._interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._send(("heartbeat", self._worker_id, self._item_id, None))
            except OSError:
                return  # parent gone; the worker is about to die anyway

    def stop(self) -> None:
        """Ask the beacon to exit; safe to call more than once."""
        self._halt.set()


def worker_main(
    worker_id: int,
    task_q,
    result_conn,
    spec: CampaignSpec,
    warm: CampaignWarmState,
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker-process entry point: run queued items until poisoned.

    The runner starts it in a forked child, so ``spec`` and ``warm`` are
    the parent's objects, inherited rather than pickled.

    Messages from the parent (all on ``task_q``):

    * ``(item, attempt)`` — run this item next.
    * ``None`` — exit.

    Messages back to the parent go on ``result_conn``, the write end of a
    pipe this worker alone holds, fresh per spawn.  They are sent
    synchronously, under a lock the heartbeat thread shares, so a worker
    killed mid-message tears only its own pipe, which the parent reads as
    the worker's death; no lock outlives it to block the other workers:

    * ``("started", worker_id, item_id, (attempt, pid))``
    * ``("heartbeat", worker_id, item_id, None)``
    * ``("done", worker_id, item_id, payload_dict)``
    * ``("failed", worker_id, item_id, error_string)``
    """
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            result_conn.send(message)

    while True:
        task = task_q.get()
        if task is None:
            return
        item, attempt = task
        send(("started", worker_id, item.item_id, (attempt, os.getpid())))
        beacon = _Heartbeat(send, worker_id, item.item_id, heartbeat_interval)
        beacon.start()
        try:
            outcome = run_item(spec, item, warm)
            send(("done", worker_id, item.item_id, outcome.to_dict()))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            send(("failed", worker_id, item.item_id,
                  f"{type(exc).__name__}: {exc}"))
        finally:
            beacon.stop()
            beacon.join(timeout=2.0)
