"""Campaign specifications: what an ATPG campaign runs, declaratively.

A :class:`CampaignSpec` names the circuits, the shared pass-schedule
parameters, the seed, and the fault-partitioning policy of one campaign.
Everything that affects *results* lives in the spec; everything that only
affects *execution* (worker count, heartbeat cadence) is a runner option,
so a campaign can be resumed under different resources and still produce
identical output.

Specs serialize to a versioned JSON document and hash canonically
(:meth:`CampaignSpec.spec_hash`); the journal records the hash so a resume
refuses to continue someone else's campaign.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit
from ..faults.model import (
    DEFAULT_FAULT_MODEL,
    FaultModelError,
    resolve_fault_model,
)
from ..hybrid.passes import PassConfig, gahitec_schedule, hitec_schedule
from ..simulation.logic_sim import available_backends

#: Identifier embedded in every serialized spec.
SPEC_SCHEMA = "repro-campaign-spec/v1"


class CampaignError(RuntimeError):
    """A campaign spec, journal, or resume attempt is invalid."""


class CampaignCancelled(CampaignError):
    """A campaign was cancelled cooperatively via the runner's stop check.

    The journal stays durable: every completed item's result survives,
    and ``resume`` continues the campaign exactly where it stopped.
    """


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one ATPG campaign.

    Attributes:
        circuits: circuit specifiers, as the CLI resolves them (built-in
            benchmark names or ``.bench``/``.v`` paths).
        name: campaign label, recorded in journals and reports.
        seed: base seed; per-item seeds derive from it deterministically.
        shard_size: maximum collapsed faults per work item.  Defaults to
            1 — per-fault items — so the pool, which hands out one item
            at a time, balances at the granularity where one hard fault
            cannot straggle a whole shard.  Larger shards only make sense
            when journal size matters more than load balance.
        passes: number of schedule passes per item.
        seq_len: GA sequence length ``x`` (0 = per-circuit default,
            ``4 * sequential_depth`` clamped to at least 4).
        time_scale: fraction of the paper's per-fault wall-clock limits;
            ``None`` disables them, which keeps items deterministic and is
            what campaign resume equality relies on.
        backtracks: pass-1 PODEM backtrack budget.
        justify_depth: deterministic reverse-time justification frame
            bound.  The default (16) matches the schedule builders;
            wall-clock-free campaigns on deeper circuits shrink it so the
            deterministic passes stay polynomial (every budget must then
            be structural).  Serialized only when non-default, so
            existing specs keep their hash.
        baseline: run the deterministic HITEC baseline schedule instead of
            GA-HITEC.
        backend: simulation backend for every item (``None`` = default);
            must be a registered backend name.
        width: fault-simulation word width.
        fault_limit: cap each circuit's collapsed fault list to its first
            N entries (smoke tests and CI drills; ``None`` = all).
        item_timeout_s: per-item wall-clock budget; a timed-out item is
            retried with a perturbed seed, and its final attempt keeps the
            partial result.
        max_attempts: total attempts per item (crashes of the *campaign*
            do not consume attempts — an interrupted item is simply rerun
            with its original seed so resumes stay deterministic).
        synthetic_item_seconds: drill mode — replace each item's ATPG run
            with a fixed-duration synthetic workload, so orchestration
            overhead and scaling can be measured independently of ATPG
            cost and host core count (benchmarks and failure drills only).
        knowledge: per-item cross-fault state-knowledge reuse (each item
            builds its own isolated store, so results stay deterministic
            under resume); the merge stage unions every item's store into
            a ``repro-knowledge/v1`` sidecar next to the journal.
        knowledge_file: optional ``repro-knowledge/v1`` sidecar preloaded
            into every item's store (a fixed input, so determinism holds).
        policy_file: optional ``repro-policy/v1`` artifact (trained via
            ``repro train-policy``) applied to every item: faults are
            reordered cheap-first and passes predicted not to resolve a
            fault skip it, with the schedule's final pass always
            targeting everything remaining (the mop-up safety net).
            Lives in the spec because it affects results; serialized
            only when set, so policy-less specs keep the hash (and
            journal identity) they had before the field existed.
        fault_model: registered fault-model name every item targets
            (``"stuck_at"`` or ``"transition"``).  Lives in the spec
            because it defines the fault universe and detection
            semantics; serialized only when non-default, so stuck-at
            specs keep the hash (and journal identity) they had before
            the field existed.
    """

    circuits: Tuple[str, ...]
    name: str = "campaign"
    seed: int = 0
    shard_size: int = 1
    passes: int = 3
    seq_len: int = 0
    time_scale: Optional[float] = None
    backtracks: int = 100
    justify_depth: int = 16
    baseline: bool = False
    backend: Optional[str] = None
    width: int = 64
    fault_limit: Optional[int] = None
    item_timeout_s: Optional[float] = None
    max_attempts: int = 3
    synthetic_item_seconds: Optional[float] = None
    knowledge: bool = True
    knowledge_file: Optional[str] = None
    policy_file: Optional[str] = None
    fault_model: str = "stuck_at"

    def __post_init__(self) -> None:
        if not self.circuits:
            raise CampaignError("campaign needs at least one circuit")
        if self.shard_size < 1:
            raise CampaignError("shard_size must be at least 1")
        if self.passes < 1:
            raise CampaignError("passes must be at least 1")
        if self.max_attempts < 1:
            raise CampaignError("max_attempts must be at least 1")
        if self.justify_depth < 1:
            raise CampaignError("justify_depth must be at least 1")
        if self.width < 1:
            raise CampaignError("width must be at least 1")
        if self.seq_len < 0:
            raise CampaignError("seq_len must be at least 0")
        if self.backtracks < 0:
            raise CampaignError("backtracks must be at least 0")
        # None stays legal for the optional numbers: it means "no limit"
        # (or, for synthetic_item_seconds, "run real ATPG")
        if self.time_scale is not None and self.time_scale <= 0:
            raise CampaignError("time_scale must be positive")
        if self.item_timeout_s is not None and self.item_timeout_s <= 0:
            raise CampaignError("item_timeout_s must be positive")
        if self.fault_limit is not None and self.fault_limit < 1:
            raise CampaignError("fault_limit must be at least 1")
        if (
            self.synthetic_item_seconds is not None
            and self.synthetic_item_seconds < 0
        ):
            raise CampaignError("synthetic_item_seconds must be at least 0")
        try:
            resolve_fault_model(self.fault_model)
        except FaultModelError as exc:
            raise CampaignError(str(exc)) from exc
        if self.backend is not None and self.backend not in available_backends():
            raise CampaignError(
                f"unknown simulation backend {self.backend!r}; "
                f"registered: {available_backends()}"
            )
        # tuple-ify so specs parsed from JSON lists hash identically
        if not isinstance(self.circuits, tuple):
            object.__setattr__(self, "circuits", tuple(self.circuits))

    # -- schedules -----------------------------------------------------
    def schedule_for(self, circuit: Circuit) -> List[PassConfig]:
        """The pass schedule every work item of ``circuit`` runs."""
        if self.baseline:
            return hitec_schedule(
                num_passes=self.passes,
                time_scale=self.time_scale,
                backtrack_base=self.backtracks,
                justify_depth=self.justify_depth,
            )
        x = self.seq_len or max(4, 4 * circuit.sequential_depth)
        return gahitec_schedule(
            x=x,
            num_passes=self.passes,
            time_scale=self.time_scale,
            backtrack_base=self.backtracks,
            justify_depth=self.justify_depth,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["circuits"] = list(self.circuits)
        data["schema"] = SPEC_SCHEMA
        # optional fields are serialized only when set: specs that leave
        # them at the default keep the hash (and journal identity) they
        # had before the field existed
        if self.policy_file is None:
            del data["policy_file"]
        if self.justify_depth == 16:
            del data["justify_depth"]
        if self.fault_model == DEFAULT_FAULT_MODEL:
            del data["fault_model"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError("campaign spec must be a JSON object")
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise CampaignError(
                f"spec schema must be {SPEC_SCHEMA!r}, got {schema!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise CampaignError(
                f"unknown spec keys: {', '.join(sorted(unknown))}"
            )
        kwargs = {k: v for k, v in data.items() if k in known}
        if "circuits" in kwargs:
            kwargs["circuits"] = tuple(kwargs["circuits"])
        return cls(**kwargs)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def spec_hash(self) -> str:
        """Canonical content hash; the journal's identity check."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def derive_seed(base: int, token: str) -> int:
    """Deterministic, platform-stable seed derivation for items/attempts."""
    return (base * 0x9E3779B1 + zlib.crc32(token.encode("utf-8"))) & 0x7FFFFFFF
