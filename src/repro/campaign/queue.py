"""Work-queue construction and state tracking for campaigns.

:func:`build_items` turns a :class:`~repro.campaign.spec.CampaignSpec`
into the campaign's complete, deterministic list of work items: each
circuit's target fault list, read from the campaign's warm state, is
partitioned into contiguous shards of at most ``shard_size`` faults.
Item identities, fault slices, and seeds depend only on the spec, so a
resumed campaign rebuilds exactly the same catalogue and the journal
only has to remember which item *states* were reached.

:class:`WorkQueue` is the in-memory state machine the runner drives:
pending → running → done / failed, with bounded retries.  Failures
(timeouts, exceptions) consume an attempt and perturb the seed;
interruptions (a killed worker or campaign) do not, so a crash-resumed
campaign reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import enum
import hashlib
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional

from ..faults.model import Fault
from ..circuits.resolve import resolve_circuit
from .spec import CampaignError, CampaignSpec, derive_seed
from .warm import CampaignWarmState


class ItemState(enum.Enum):
    """Lifecycle of one work item."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class WorkItem:
    """One (circuit, fault-shard) unit of campaign work.

    Attributes:
        item_id: stable identifier, ``<circuit>/<shard index>``.
        circuit: circuit specifier (resolvable name or path).
        start: offset of the shard in the circuit's collapsed fault list
            (after the spec's ``fault_limit`` cap).
        count: number of faults in the shard.
        seed: item seed, derived from the spec seed and the item id.
        fault_hash: short hash of the shard's fault names; workers verify
            it before running so a spec/code drift cannot silently grade
            the wrong faults after a resume.
    """

    item_id: str
    circuit: str
    start: int
    count: int
    seed: int
    fault_hash: str


def shard_faults(spec: CampaignSpec, circuit_name: str) -> List[Fault]:
    """The circuit's target fault list in canonical (sorted) order.

    Resolves the circuit afresh; a campaign reads the same list from its
    warm state instead.
    """
    return spec.faults_for(resolve_circuit(circuit_name))


def _hash_faults(faults: List[Fault]) -> str:
    names = ",".join(str(f) for f in faults)
    return hashlib.sha256(names.encode("utf-8")).hexdigest()[:12]


def build_items(spec: CampaignSpec, warm: CampaignWarmState) -> List[WorkItem]:
    """The campaign's full, deterministic work-item catalogue.

    ``warm`` is the campaign's warm state, built from ``spec``; each
    circuit's target faults come from it.
    """
    items: List[WorkItem] = []
    for circuit_name in spec.circuits:
        faults = warm.circuits[circuit_name].faults
        if not faults:
            continue
        for shard, start in enumerate(range(0, len(faults), spec.shard_size)):
            chunk = faults[start : start + spec.shard_size]
            item_id = f"{circuit_name}/{shard:03d}"
            items.append(
                WorkItem(
                    item_id=item_id,
                    circuit=circuit_name,
                    start=start,
                    count=len(chunk),
                    seed=derive_seed(spec.seed, item_id),
                    fault_hash=_hash_faults(chunk),
                )
            )
    if not items:
        raise CampaignError("campaign has no target faults")
    return items


def seed_for_attempt(item: WorkItem, attempt: int) -> int:
    """Attempt 1 keeps the item seed; retries perturb it deterministically."""
    if attempt <= 1:
        return item.seed
    return derive_seed(item.seed, f"attempt:{attempt}")


@dataclass
class _Slot:
    item: WorkItem
    state: ItemState = ItemState.PENDING
    attempt: int = 0  # attempts started so far
    error: Optional[str] = None


class WorkQueue:
    """Item-state machine with bounded, seed-perturbing retries."""

    def __init__(self, items: List[WorkItem], max_attempts: int = 3):
        self.max_attempts = max_attempts
        self._slots: Dict[str, _Slot] = {
            item.item_id: _Slot(item) for item in items
        }
        self._pending: Deque[str] = deque(item.item_id for item in items)

    # -- dispatch ------------------------------------------------------
    def take(self) -> Optional[WorkItem]:
        """Claim the next pending item (marks it running); None when idle."""
        while self._pending:
            item_id = self._pending.popleft()
            slot = self._slots[item_id]
            if slot.state is ItemState.PENDING:
                slot.state = ItemState.RUNNING
                slot.attempt += 1
                return replace(
                    slot.item,
                    seed=seed_for_attempt(slot.item, slot.attempt),
                )
        return None

    def attempt_of(self, item_id: str) -> int:
        return self._slots[item_id].attempt

    # -- transitions ---------------------------------------------------
    def mark_done(self, item_id: str) -> None:
        """Mark an item completed, by this run or by a replayed journal.

        A replayed item may still be pending, so it also leaves the
        pending queue and is never dispatched.
        """
        slot = self._slots.get(item_id)
        if slot is None:
            raise CampaignError(f"journal references unknown item {item_id}")
        slot.state = ItemState.DONE
        try:
            self._pending.remove(item_id)
        except ValueError:
            pass

    def mark_failed(self, item_id: str, error: str) -> bool:
        """Record a failed attempt; True when the item will be retried."""
        slot = self._slots[item_id]
        slot.error = error
        if slot.attempt < self.max_attempts:
            slot.state = ItemState.PENDING
            self._pending.append(item_id)
            return True
        slot.state = ItemState.FAILED
        return False

    def mark_interrupted(self, item_id: str) -> None:
        """Requeue after a crash without consuming an attempt or the seed."""
        slot = self._slots[item_id]
        slot.attempt = max(0, slot.attempt - 1)
        slot.state = ItemState.PENDING
        self._pending.append(item_id)

    def restore_attempts(self, item_id: str, attempts: int) -> None:
        """Restore failed-attempt history from a journal replay.

        Retries after a resume continue the original attempt numbering,
        so their perturbed seeds match what an uninterrupted campaign
        would have used.  Items that already exhausted their attempts
        stay failed.
        """
        slot = self._slots.get(item_id)
        if slot is None:
            raise CampaignError(f"journal references unknown item {item_id}")
        slot.attempt = max(slot.attempt, attempts)
        if slot.attempt >= self.max_attempts:
            slot.state = ItemState.FAILED
            try:
                self._pending.remove(item_id)
            except ValueError:
                pass

    # -- queries -------------------------------------------------------
    def state_of(self, item_id: str) -> ItemState:
        return self._slots[item_id].state

    def counts(self) -> Dict[str, int]:
        out = {state.value: 0 for state in ItemState}
        for slot in self._slots.values():
            out[slot.state.value] += 1
        return out

    def finished(self) -> bool:
        return all(
            slot.state in (ItemState.DONE, ItemState.FAILED)
            for slot in self._slots.values()
        )

    def failed_items(self) -> List[str]:
        return sorted(
            item_id
            for item_id, slot in self._slots.items()
            if slot.state is ItemState.FAILED
        )

    def __len__(self) -> int:
        return len(self._slots)
