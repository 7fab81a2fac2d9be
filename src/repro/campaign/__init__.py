"""Durable, resumable, multi-process ATPG campaign orchestration.

A *campaign* runs the hybrid test generator over many circuits' fault
lists as a fleet of bounded work items: each circuit's collapsed fault
list is partitioned into per-fault items (or larger shards) with
deterministic seeds, and items execute inline or across a pool of forked
worker processes with per-item timeouts, heartbeats, and bounded
retries.  The pool is warm-forked — the parent compiles circuits,
computes SCOAP and collapses faults *before* forking
(:mod:`~repro.campaign.warm`), so workers inherit everything
copy-on-write — and dispatch sends one item at a time: each worker has
at most one unstarted item queued behind the one it runs.  Every item
runs with its own isolated knowledge store, so results do not depend on
the worker count.  Every state transition lands in an append-only JSONL
journal, so a campaign killed at any instant resumes to the same final
test set and coverage an uninterrupted run would have produced.  The merge stage re-fault-simulates all accepted sequences
across shards, crediting incidental detections and dropping redundant
sequences.
"""

from .journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalState,
    JournalTail,
    knowledge_sidecar_path,
    read_events,
)
from .merge import CampaignResult, CircuitMergeResult, merge_campaign
from .warm import CampaignWarmState, CircuitWarmState
from .queue import (
    ItemState,
    WorkItem,
    WorkQueue,
    build_items,
    seed_for_attempt,
    shard_faults,
)
from .runner import CampaignRunner
from .spec import (
    SPEC_SCHEMA,
    CampaignCancelled,
    CampaignError,
    CampaignSpec,
    derive_seed,
)
from .worker import ItemOutcome, run_item, worker_main

__all__ = [
    "CampaignCancelled",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignWarmState",
    "CircuitMergeResult",
    "CircuitWarmState",
    "ItemOutcome",
    "ItemState",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalState",
    "JournalTail",
    "SPEC_SCHEMA",
    "WorkItem",
    "WorkQueue",
    "build_items",
    "derive_seed",
    "knowledge_sidecar_path",
    "merge_campaign",
    "read_events",
    "run_item",
    "seed_for_attempt",
    "shard_faults",
    "worker_main",
]
