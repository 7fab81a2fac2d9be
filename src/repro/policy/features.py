"""Per-fault static feature vectors for the scheduling policy.

Every feature is a deterministic function of the compiled circuit (its
SCOAP measures among them, :func:`~repro.atpg.scoap.cached_testability`)
and the fault itself — no run-time state — so a vector computed while
*recording* a report equals the vector computed later while *applying* a
trained policy to the same circuit.  The driver embeds these vectors in each
:class:`~repro.telemetry.report.FaultRecord`, making reports
self-contained training data (no circuit re-resolution needed).

The order of :data:`FEATURE_NAMES` is the model's input layout; new
features must be appended, never inserted, and absent keys read as 0.0
so older reports stay usable as training data.
"""

from __future__ import annotations

from typing import Dict, List

from ..atpg.scoap import HARD, cached_testability
from ..faults.model import DEFAULT_FAULT_MODEL, Fault
from ..simulation.compiled import CompiledCircuit

#: Model input layout. Append-only; absent keys deserialize as 0.0.
FEATURE_NAMES = (
    "cc0",
    "cc1",
    "co",
    "excite_cost",
    "detect_cost",
    "fanout",
    "level",
    "depth_frac",
    "seq_depth",
    "ff_count",
    "stuck",
    "is_branch",
    "pin",
    "is_pi",
    "is_ff_out",
    "is_transition",
)


def fault_features(cc: CompiledCircuit, fault: Fault) -> Dict[str, float]:
    """The static feature dict for one fault on one compiled circuit.

    SCOAP costs at or above :data:`~repro.atpg.scoap.HARD` are clamped
    to ``HARD`` so unobservable/uncontrollable sites read as one shared
    "very hard" magnitude instead of unbounded sums.
    """
    idx = cc.index[fault.net]
    testability = cached_testability(cc)
    cc0 = min(testability.cc0[idx], HARD)
    cc1 = min(testability.cc1[idx], HARD)
    co = min(testability.co[idx], HARD)
    # exciting stuck-at-v requires driving the site to the opposite
    # value; a transition fault additionally initialises at the stuck
    # value, but its excitation-cost proxy is the same final drive
    excite = cc1 if fault.stuck == 0 else cc0
    seq_depth = cc.circuit.sequential_depth
    num_levels = max(1, cc.num_levels)
    features = {
        "cc0": float(cc0),
        "cc1": float(cc1),
        "co": float(co),
        "excite_cost": float(excite),
        "detect_cost": float(min(excite + co, HARD)),
        "fanout": float(len(cc.fanout_gates[idx])),
        "level": float(cc.level[idx]),
        "depth_frac": float(cc.level[idx]) / float(num_levels),
        "seq_depth": float(seq_depth),
        "ff_count": float(len(cc.ff_out)),
        "stuck": float(fault.stuck),
        "is_branch": 1.0 if fault.is_branch else 0.0,
        "pin": float(max(fault.pin, 0)),
        "is_pi": 1.0 if idx in cc.pi else 0.0,
        "is_ff_out": 1.0 if idx in cc.ff_out else 0.0,
    }
    # emitted only for non-stuck-at faults: absent keys read 0.0, and
    # omission keeps stuck-at report payloads byte-identical to those
    # written before the feature existed
    if fault.model != DEFAULT_FAULT_MODEL:
        features["is_transition"] = 1.0
    return features


def feature_vector(features: Dict[str, float]) -> List[float]:
    """Flatten a feature dict into the model's input layout.

    Unknown keys are ignored and missing keys read 0.0, so vectors from
    older or newer report schemas still line up with the trained model's
    feature indices.
    """
    return [float(features.get(name, 0.0)) for name in FEATURE_NAMES]
