"""Campaign orchestration: the durable, resumable warm-fork runner.

:class:`CampaignRunner` drives a campaign end to end: it builds the
deterministic work-item catalogue, **warms** every per-circuit artifact
(compile, SCOAP, fault collapse, knowledge preload, policy plan) in the
parent, then executes items either inline (``workers=1``) or across a
pool of forked worker processes that inherit the warm state
copy-on-write.  Every state transition is journaled durably and the
campaign finishes with the merge stage.

Dispatch is one item at a time from one shared queue, not static
sharding: the parent keeps exactly one unstarted item queued at each
live worker and sends the next one as soon as the worker reports it
started the queued one, so a worker never waits on the parent between
items.  A worker holds at most its running item plus one queued item, so
the tail imbalance is at most one item.  With per-fault items
(``shard_size=1``, the default) one hard fault cannot straggle a whole
shard.

The parent never trusts a worker: liveness is tracked through heartbeats
and ``is_alive``.  A hung worker is killed and its running item fails;
a dead worker's running and queued items are requeued (without
consuming an attempt, so results stay deterministic) and the worker is
respawned with a fresh task queue and result pipe.

Crash model:

* a *worker* dies (OOM-kill, SIGKILL, segfault) — the runner requeues its
  items and respawns the worker; the campaign keeps going;
* an item *fails* (exception) or *times out* — the attempt is journaled
  and the item retries with a deterministically perturbed seed, up to
  ``max_attempts``; the final attempt of a timed-out item keeps its
  partial results;
* the *campaign* dies (SIGKILL, power loss, Ctrl-C) — the journal holds
  every completed item; ``resume`` replays it, reruns only unfinished
  items with their original seeds, and produces the same final test set
  and coverage as an uninterrupted run.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clock import monotonic
from ..knowledge import save_knowledge
from .journal import JOURNAL_SCHEMA, Journal, JournalState, knowledge_sidecar_path
from .merge import CampaignResult, merge_campaign
from .queue import ItemState, WorkItem, WorkQueue, build_items
from .spec import CampaignCancelled, CampaignError, CampaignSpec
from .warm import CampaignWarmState
from .worker import run_item, worker_main


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` context, or ``None`` where it is missing (run inline).

    Only ``fork`` lets workers inherit the warm state copy-on-write: the
    arguments of a forked ``Process`` are never pickled.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


#: Held from a result pipe's creation until the parent closes its write
#: end, so no other runner in this process forks a worker in between: a
#: worker that inherited the write end would keep its owner from seeing
#: EOF when the owning worker dies, and a torn frame would block ``recv``.
_SPAWN_LOCK = threading.Lock()


class _WorkerHandle:
    """Parent-side view of one pooled worker and the items it holds."""

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.task_q: Any = None
        #: read end of the worker's result pipe; None once it broke
        self.result_r: Any = None
        #: the item the worker said it started, if any: (item, attempt)
        self.running: Optional[Tuple[WorkItem, int]] = None
        #: sent to the worker, not yet started: (item, attempt)
        self.queued: Optional[Tuple[WorkItem, int]] = None
        self.last_beat: float = 0.0

    def held(self) -> List[Tuple[WorkItem, int]]:
        """Everything the worker holds (requeued when it dies)."""
        return [
            entry for entry in (self.running, self.queued)
            if entry is not None
        ]


class CampaignRunner:
    """Run or resume one campaign against a durable journal.

    Args:
        spec: the campaign specification (results-affecting knobs).
        journal_path: JSONL journal location; created on first run.
        workers: worker processes; 1 runs items inline in this process
            (always available, used as fallback where ``fork`` is not).
        heartbeat_interval: worker liveness beacon period, seconds.
        hang_timeout_s: kill a worker whose item has not beaconed for
            this long and retry the item (counts as a failed attempt);
            ``None`` disables hang detection.
        clock: wall-clock source for campaign timing (injectable for
            tests; item-level clocks stay worker-local).
        stop_check: cooperative cancellation probe.  Polled between
            items (inline mode) and between scheduler rounds (pooled
            mode); when it returns true the runner terminates its
            workers and raises :class:`CampaignCancelled`.  The journal
            keeps every completed item, so the campaign resumes cleanly.
    """

    #: replacement workers spawned per original worker before giving up
    MAX_RESPAWNS_PER_WORKER = 4

    def __init__(
        self,
        spec: CampaignSpec,
        journal_path: str,
        workers: int = 1,
        heartbeat_interval: float = 0.5,
        hang_timeout_s: Optional[float] = None,
        clock: Callable[[], float] = monotonic,
        stop_check: Optional[Callable[[], bool]] = None,
    ):
        self.spec = spec
        self.journal_path = journal_path
        self.workers = max(1, int(workers))
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout_s = hang_timeout_s
        self.clock = clock
        self.stop_check = stop_check

    # -- public entry points -------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute the campaign to completion (fresh or resumed)."""
        wall0 = self.clock()
        phase_times: Dict[str, float] = {}
        # warm fork: build every per-circuit artifact once, in the
        # parent, before any worker exists — children inherit it COW,
        # and the catalogue and the merge read their circuits from it.
        # It comes before the first journal write, so a spec whose
        # inputs cannot load leaves no journal behind.
        t0 = self.clock()
        warm_state = CampaignWarmState.build(self.spec)
        phase_times["warm_s"] = self.clock() - t0
        items = build_items(self.spec, warm_state)
        restored: Optional[JournalState] = None
        if resume:
            restored = self._validate_resume(items)
        elif (
            os.path.exists(self.journal_path)
            and os.path.getsize(self.journal_path) > 0
        ):
            raise CampaignError(
                f"journal {self.journal_path} already exists — "
                f"use `repro campaign resume` to continue it"
            )
        payloads: Dict[str, Dict[str, Any]] = {}
        with Journal(self.journal_path) as journal:
            if restored is None:
                journal.append({
                    "type": "campaign",
                    "schema": JOURNAL_SCHEMA,
                    "name": self.spec.name,
                    "spec": self.spec.to_dict(),
                    "spec_hash": self.spec.spec_hash(),
                    "items": len(items),
                })
                journal.append({
                    "type": "items",
                    "catalogue": [
                        {"item": i.item_id, "faults": i.count,
                         "fault_hash": i.fault_hash}
                        for i in items
                    ],
                })
            queue = WorkQueue(items, self.spec.max_attempts)
            if restored is not None:
                for item_id, payload in restored.done.items():
                    queue.mark_done(item_id)
                    payloads[item_id] = payload
                for item_id, attempts in restored.attempts.items():
                    if item_id not in restored.done:
                        queue.restore_attempts(item_id, attempts)
            t0 = self.clock()
            ctx = _fork_context() if self.workers > 1 else None
            if ctx is None:
                phase_times["fork_s"] = 0.0
                self._run_inline(queue, payloads, journal, warm_state)
            else:
                self._run_pool(
                    ctx, queue, payloads, journal, phase_times, warm_state
                )
            phase_times["solve_s"] = self.clock() - t0 - phase_times["fork_s"]
            t0 = self.clock()
            result = merge_campaign(self.spec, payloads, warm_state)
            phase_times["merge_s"] = self.clock() - t0
            result.items_failed = len(queue.failed_items())
            result.wall_time_s = self.clock() - wall0
            result.phase_times = phase_times
            if result.report is not None:
                result.report.jobs = self.workers
                result.report.wall_time_s = result.wall_time_s
            # sidecar + its event land before "merged": the journal's
            # terminal event stays "merged", and a crash in between just
            # means the (idempotent) merge stage reruns on resume
            if self.spec.knowledge and result.knowledge:
                path = self.knowledge_path()
                save_knowledge(result.knowledge, path)
                journal.append({
                    "type": "knowledge",
                    "path": path,
                    "entries": {
                        name: len(store)
                        for name, store in sorted(result.knowledge.items())
                    },
                    "stats": dict(sorted(result.knowledge_stats.items())),
                })
            journal.append({
                "type": "merged",
                "summary": result.summary_dict(),
            })
            return result

    def knowledge_path(self) -> str:
        """This campaign's knowledge sidecar (:func:`knowledge_sidecar_path`)."""
        return knowledge_sidecar_path(self.journal_path)

    @classmethod
    def resume(
        cls, journal_path: str, workers: int = 1, **kwargs
    ) -> CampaignResult:
        """Resume a journaled campaign; the spec comes from the journal."""
        state = JournalState.replay(journal_path)
        spec = CampaignSpec.from_dict(state.spec_data)
        runner = cls(spec, journal_path, workers=workers, **kwargs)
        return runner.run(resume=True)

    @staticmethod
    def status(journal_path: str) -> Dict[str, Any]:
        """Campaign progress snapshot reconstructed from the journal."""
        state = JournalState.replay(journal_path)
        spec = CampaignSpec.from_dict(state.spec_data)
        total = len(state.item_hashes)
        return {
            "name": spec.name,
            "spec_hash": state.spec_hash,
            "items": total,
            "done": len(state.done),
            "failed": len(state.failed),
            "in_flight": sorted(state.started),
            "merged": state.merged,
        }

    # -- cooperative cancellation --------------------------------------
    def _check_cancelled(self, journal: Journal) -> None:
        """Raise :class:`CampaignCancelled` when the stop check fires.

        The ``cancelled`` event is diagnostic only (replay ignores it);
        it marks *when* the campaign stopped in the journal's timeline so
        tailing consumers see the transition.
        """
        if self.stop_check is not None and self.stop_check():
            journal.append({"type": "cancelled"})
            raise CampaignCancelled(
                "campaign cancelled — journal is durable, resume to "
                "continue"
            )

    # -- resume restoration --------------------------------------------
    def _validate_resume(self, items: List[WorkItem]) -> JournalState:
        """Replay the journal and check it belongs to this campaign."""
        state = JournalState.replay(self.journal_path)
        if state.spec_hash != self.spec.spec_hash():
            raise CampaignError(
                f"journal {self.journal_path} belongs to campaign "
                f"{state.spec_hash}, not {self.spec.spec_hash()}"
            )
        catalogue = {i.item_id: i.fault_hash for i in items}
        for item_id, fault_hash in state.item_hashes.items():
            if catalogue.get(item_id) != fault_hash:
                raise CampaignError(
                    f"{item_id}: fault shard drifted since the campaign "
                    f"was planned — start a fresh campaign"
                )
        return state

    # -- shared outcome policy -----------------------------------------
    def _settle(
        self,
        item_id: str,
        attempt: int,
        payload: Dict[str, Any],
        queue: WorkQueue,
        payloads: Dict[str, Dict[str, Any]],
        journal: Journal,
    ) -> None:
        """Apply the done/timeout policy for one finished attempt."""
        if queue.state_of(item_id) is ItemState.DONE:
            return  # duplicate completion (raced a requeue): first wins
        if payload.get("timed_out") and attempt < self.spec.max_attempts:
            journal.append({
                "type": "item_failed", "item": item_id,
                "attempt": attempt, "error": "timeout",
            })
            queue.mark_failed(item_id, "timeout")
            return
        payloads[item_id] = payload
        journal.append({
            "type": "item_done", "item": item_id,
            "attempt": attempt, "payload": payload,
        })
        queue.mark_done(item_id)

    def _fail(
        self,
        item_id: str,
        attempt: int,
        error: str,
        queue: WorkQueue,
        journal: Journal,
    ) -> None:
        journal.append({
            "type": "item_failed", "item": item_id,
            "attempt": attempt, "error": error,
        })
        queue.mark_failed(item_id, error)

    # -- inline execution ----------------------------------------------
    def _run_inline(
        self,
        queue: WorkQueue,
        payloads: Dict[str, Dict[str, Any]],
        journal: Journal,
        warm_state: CampaignWarmState,
    ) -> None:
        while True:
            self._check_cancelled(journal)
            item = queue.take()
            if item is None:
                break
            attempt = queue.attempt_of(item.item_id)
            journal.append({
                "type": "item_started", "item": item.item_id,
                "attempt": attempt, "pid": os.getpid(), "worker": 0,
            })
            try:
                outcome = run_item(self.spec, item, warm_state)
            except CampaignError:
                raise
            except Exception as exc:  # noqa: BLE001 — retry policy
                self._fail(item.item_id, attempt,
                           f"{type(exc).__name__}: {exc}", queue, journal)
                continue
            self._settle(item.item_id, attempt, outcome.to_dict(),
                         queue, payloads, journal)

    # -- pooled execution ----------------------------------------------
    def _run_pool(
        self,
        ctx: multiprocessing.context.BaseContext,
        queue: WorkQueue,
        payloads: Dict[str, Dict[str, Any]],
        journal: Journal,
        phase_times: Dict[str, float],
        warm_state: CampaignWarmState,
    ) -> None:
        handles = [_WorkerHandle(wid) for wid in range(self.workers)]

        def spawn(handle: _WorkerHandle) -> None:
            # a fresh task queue and result pipe per (re)spawn: items sent
            # to a dead worker can never be replayed by its replacement,
            # and a worker killed mid-message tears only its own pipe
            if handle.result_r is not None:
                handle.result_r.close()
            handle.task_q = ctx.Queue()
            with _SPAWN_LOCK:
                handle.result_r, result_w = ctx.Pipe(duplex=False)
                handle.proc = ctx.Process(
                    target=worker_main,
                    args=(handle.wid, handle.task_q, result_w, self.spec,
                          warm_state, self.heartbeat_interval),
                    daemon=True,
                )
                handle.proc.start()
                result_w.close()  # the worker holds the only write end
            handle.last_beat = self.clock()

        t0 = self.clock()
        for handle in handles:
            spawn(handle)
        phase_times["fork_s"] = self.clock() - t0

        respawns = 0
        try:
            while True:
                self._check_cancelled(journal)
                # keep one unstarted item queued at every live worker, so
                # it never waits on the parent between items
                for handle in handles:
                    if handle.queued is not None or not handle.proc.is_alive():
                        continue
                    item = queue.take()
                    if item is None:
                        break
                    handle.queued = (item, queue.attempt_of(item.item_id))
                    handle.task_q.put(handle.queued)
                if queue.finished() and not any(h.held() for h in handles):
                    break
                self._drain(handles, queue, payloads, journal)
                now = self.clock()
                for handle in handles:
                    if handle.proc.is_alive():
                        if (
                            handle.running is None
                            or self.hang_timeout_s is None
                            or now - handle.last_beat <= self.hang_timeout_s
                        ):
                            continue
                        # hung worker: kill it and fail its running item
                        # (consumes an attempt); its queued item is
                        # requeued below, as a crashed worker's would be
                        handle.proc.kill()
                        handle.proc.join(timeout=5.0)
                        item, attempt = handle.running
                        self._fail(item.item_id, attempt, "hung",
                                   queue, journal)
                        handle.running = None
                    # dead worker: requeue everything it held without
                    # burning attempts, so reruns reproduce the same results
                    for item, attempt in handle.held():
                        journal.append({
                            "type": "item_interrupted", "item": item.item_id,
                            "attempt": attempt, "worker": handle.wid,
                        })
                        queue.mark_interrupted(item.item_id)
                    handle.running = handle.queued = None
                    if queue.finished():
                        continue  # nothing left for a replacement to do
                    respawns += 1
                    if respawns > self.MAX_RESPAWNS_PER_WORKER * self.workers:
                        raise CampaignError(
                            "workers keep dying; campaign halted "
                            "(journal is durable — resume when fixed)"
                        )
                    spawn(handle)
        except BaseException:
            for handle in handles:
                if handle.proc is not None and handle.proc.is_alive():
                    handle.proc.terminate()
            raise
        finally:
            for handle in handles:
                try:
                    handle.task_q.put(None)
                except Exception:
                    pass
            for handle in handles:
                if handle.proc is not None:
                    handle.proc.join(timeout=2.0)
                    if handle.proc.is_alive():
                        handle.proc.kill()
                if handle.result_r is not None:
                    handle.result_r.close()

    def _drain(
        self,
        handles: List[_WorkerHandle],
        queue: WorkQueue,
        payloads: Dict[str, Dict[str, Any]],
        journal: Journal,
    ) -> None:
        """Handle every waiting worker message, blocking briefly for one."""
        live = {h.result_r: h for h in handles if h.result_r is not None}
        messages = []
        for conn in multiprocessing.connection.wait(list(live), timeout=0.05):
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                # the worker died, maybe mid-message: kill what is left
                # of it, and the liveness check requeues what it held
                conn.close()
                live[conn].result_r = None
                live[conn].proc.kill()
        for kind, wid, item_id, data in messages:
            handle = handles[wid]
            handle.last_beat = self.clock()
            if kind == "started":
                attempt, pid = data
                if (
                    handle.queued is not None
                    and handle.queued[0].item_id == item_id
                ):
                    handle.running, handle.queued = handle.queued, None
                journal.append({
                    "type": "item_started", "item": item_id,
                    "attempt": attempt, "pid": pid, "worker": wid,
                })
            elif kind == "heartbeat":
                pass  # liveness only; not journaled (fsync traffic)
            elif kind in ("done", "failed"):
                running = handle.running
                ours = running is not None and running[0].item_id == item_id
                attempt = running[1] if ours else 1
                if kind == "done":
                    self._settle(item_id, attempt, data, queue, payloads,
                                 journal)
                elif queue.state_of(item_id) is not ItemState.DONE:
                    self._fail(item_id, attempt, data, queue, journal)
                if ours:
                    handle.running = None
