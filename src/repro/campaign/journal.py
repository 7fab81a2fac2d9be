"""Append-only campaign journal: durability and resume in one JSONL file.

Every state transition the runner makes is appended as one JSON line and
handed to the operating system at once, so the journal survives SIGKILL
of the campaign at any instant.  An append is also fsynced, unless it is
made inside :meth:`Journal.group`: the pooled runner groups the events of
one scheduler round and fsyncs them together before it dispatches more
work.  A machine crash can then lose at most that round's events, which
is the same as a crash just before their messages arrived: the items
were started but not finished, and rerun with their original seeds.
``repro campaign resume`` replays the file: items with a ``item_done``
event keep their recorded results (including accepted vectors and their
``repro-run-report/v1`` payloads); items that were merely started are
rerun from scratch with their original seeds.  The final line of a killed
process may be truncated — the reader tolerates exactly that, and the
writer drops the torn (never durable) tail before appending.

Event types (all carry ``ts``):

``campaign``        — campaign header: schema, spec, spec hash, item count.
``items``           — the item catalogue (ids + fault hashes), for drift
                      detection on resume.
``item_started``    — an attempt began (item id, attempt, worker pid).
``item_done``       — attempt finished; carries the full item payload.
``item_failed``     — attempt raised or timed out; carries the error.
``item_interrupted``— a worker held the item (running or queued) when it
                      died; the item was requeued without consuming an
                      attempt.
``merged``          — the merge stage ran; carries the campaign summary.

Replay reconstructs state from the ``item_*`` events alone and ignores
unknown or extra event types, so journals from older runners resume
under newer ones and vice versa; older runners also wrote ``lease`` and
``steal`` events, which replay ignores.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..clock import wall
from .spec import CampaignError

#: Identifier embedded in the journal's campaign header line.
JOURNAL_SCHEMA = "repro-campaign-journal/v1"


class Journal:
    """Append-only JSONL writer: fsync per event, or per :meth:`group`."""

    def __init__(self, path: str, clock: Callable[[], float] = wall):
        self.path = path
        self.clock = clock
        self._handle: Optional[io.TextIOWrapper] = None
        #: inside :meth:`group`, appends leave the fsync to its exit
        self._grouped = False
        #: written since the last fsync
        self._unsynced = False

    def _open(self) -> io.TextIOWrapper:
        if self._handle is None:
            # a killed writer can leave a torn final line (no trailing
            # newline); that event was never durable, so drop it before
            # appending — otherwise it would corrupt the middle of the file
            if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                with open(self.path, "r+b") as existing:
                    data = existing.read()
                    if not data.endswith(b"\n"):
                        keep = data.rfind(b"\n") + 1
                        existing.truncate(keep)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, event: Dict[str, Any]) -> None:
        """Write one event (flush), and fsync it unless inside a group."""
        handle = self._open()
        event = dict(event)
        event.setdefault("ts", round(self.clock(), 3))
        handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        handle.flush()
        self._unsynced = True
        if not self._grouped:
            self._sync()

    @contextmanager
    def group(self) -> Iterator[None]:
        """Make the events appended inside durable with one fsync at exit.

        Each event is still written as it is appended, so a killed
        process loses none of them; only the fsync waits for the exit,
        which also comes when the body raises.
        """
        self._grouped = True
        try:
            yield
        finally:
            self._grouped = False
            self._sync()

    def _sync(self) -> None:
        if self._unsynced and self._handle is not None:
            os.fsync(self._handle.fileno())
            self._unsynced = False

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JournalTail:
    """Incremental torn-tail-tolerant journal reader.

    The single reader implementation behind both the resume path
    (:func:`read_events` drains a journal in one :meth:`poll`) and live
    consumers such as the service's SSE streams, which keep one tail per
    stream and poll it while the campaign is still writing.

    Only byte ranges ending in a newline are ever consumed: a torn final
    line — a mid-write kill, or a concurrent writer whose line has not
    fully landed yet — stays unread until it either completes or the
    writer truncates it away on reopen.  Because the writer only ever
    truncates a newline-less tail, the consumed offset can never point
    past a truncation, so tailing a live journal is race-free.
    """

    def __init__(self, path: str):
        self.path = path
        #: byte offset of the first unconsumed line
        self.offset = 0
        #: complete lines consumed so far (for error messages)
        self.lines = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Every event that became durable since the last poll.

        A journal that does not exist yet reads as empty (the campaign
        may not have started); a journal that *shrank* (rewritten from
        scratch) is re-read from the top.
        """
        try:
            if os.path.getsize(self.path) <= self.offset:
                return []
        except OSError:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            data = handle.read()
        keep = data.rfind(b"\n") + 1  # never consume a torn tail
        events: List[Dict[str, Any]] = []
        for raw in data[:keep].split(b"\n"):
            raw = raw.strip()
            if not raw:
                continue
            self.lines += 1
            try:
                events.append(json.loads(raw.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise CampaignError(
                    f"{self.path}:{self.lines}: corrupt journal line"
                ) from None
        self.offset += keep
        return events


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a journal, tolerating a torn final line from a killed writer."""
    with open(path, "r", encoding="utf-8"):
        pass  # a missing journal is the caller's error, not an empty one
    return JournalTail(path).poll()


def knowledge_sidecar_path(journal_path: str) -> str:
    """A campaign's merged knowledge: the journal's stem + ``.knowledge.json``."""
    return os.path.splitext(journal_path)[0] + ".knowledge.json"


@dataclass
class JournalState:
    """Campaign state reconstructed by replaying a journal.

    Attributes:
        spec_data: the spec document from the campaign header.
        spec_hash: spec hash recorded at campaign start.
        item_hashes: item id -> fault hash from the catalogue event.
        done: item id -> the *first* recorded result payload.  First wins:
            once a result is durable it is final, so a duplicate event
            (e.g. a worker that raced a requeue) cannot change history.
        failed: item id -> last error for permanently failed items.
        attempts: item id -> failed attempts recorded so far.
        started: item ids with a started attempt and no terminal event.
        merged: the merge summary, when the campaign completed.
    """

    spec_data: Dict[str, Any] = field(default_factory=dict)
    spec_hash: str = ""
    item_hashes: Dict[str, str] = field(default_factory=dict)
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)
    started: Dict[str, int] = field(default_factory=dict)
    merged: Optional[Dict[str, Any]] = None

    @classmethod
    def replay(cls, path: str) -> "JournalState":
        state = cls()
        for event in read_events(path):
            kind = event.get("type")
            item_id = event.get("item")
            if kind == "campaign":
                if event.get("schema") != JOURNAL_SCHEMA:
                    raise CampaignError(
                        f"journal schema {event.get('schema')!r} is not "
                        f"{JOURNAL_SCHEMA!r}"
                    )
                state.spec_data = event.get("spec", {})
                state.spec_hash = event.get("spec_hash", "")
            elif kind == "items":
                state.item_hashes = {
                    entry["item"]: entry["fault_hash"]
                    for entry in event.get("catalogue", [])
                }
            elif kind == "item_started":
                state.started[item_id] = event.get("attempt", 1)
            elif kind == "item_done":
                state.done.setdefault(item_id, event.get("payload", {}))
                state.started.pop(item_id, None)
                state.failed.pop(item_id, None)
            elif kind == "item_failed":
                state.attempts[item_id] = event.get("attempt", 1)
                state.failed[item_id] = event.get("error", "unknown")
                state.started.pop(item_id, None)
            elif kind == "item_interrupted":
                state.started.pop(item_id, None)
            elif kind == "merged":
                state.merged = event.get("summary", {})
        if not state.spec_data:
            raise CampaignError(f"{path}: no campaign header event")
        # permanently-failed means: failed with no later success
        state.failed = {
            item_id: error
            for item_id, error in state.failed.items()
            if item_id not in state.done
        }
        return state
