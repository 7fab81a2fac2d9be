"""Learned fault-scheduling policy (HybMT-style meta-prediction).

The static Table-I schedule targets every fault in every pass.  The
dispositions accumulated in ``repro-run-report/v1`` documents record
which pass and engine actually resolved each fault and at what cost —
exactly the supervision needed to *learn* a schedule.  This package
turns those reports into a deployable policy:

* :mod:`repro.policy.features` — a per-fault static feature vector
  (SCOAP controllabilities/observability at the fault site, fanout,
  logic depth, sequential depth, fault polarity/type) computed from the
  compiled circuit and its cached SCOAP measures;
* :mod:`repro.policy.dataset` — joins features with mined dispositions
  into labeled training rows;
* :mod:`repro.policy.model` — a dependency-free gradient-boosted
  regression-tree predictor with deterministic training, serialized as
  a versioned ``repro-policy/v1`` JSON artifact;
* :mod:`repro.policy.schedule` — turns predictions into action: a
  :class:`~repro.policy.schedule.PolicyPlan` that orders faults
  cheap-first, starts each fault at the pass predicted to resolve it,
  and defers predicted-futile faults to the final mop-up pass.

The final pass of any schedule targets *every* remaining fault
regardless of prediction.  That does not keep coverage: a deferred
fault loses the earlier passes' attempts and the test set changes, so
a policy can lose detections as well as skip wasted work.  See
``docs/POLICY.md`` for measurements.
"""

from .features import (
    FEATURE_NAMES,
    fault_features,
    feature_vector,
    features_for_faults,
)
from .dataset import Dataset, DatasetRow, dataset_from_reports
from .model import FaultPolicy, PolicyError, train_policy
from .schedule import FaultPlan, PolicyPlan, build_plan

__all__ = [
    "FEATURE_NAMES",
    "fault_features",
    "feature_vector",
    "features_for_faults",
    "Dataset",
    "DatasetRow",
    "dataset_from_reports",
    "FaultPolicy",
    "PolicyError",
    "train_policy",
    "FaultPlan",
    "PolicyPlan",
    "build_plan",
]
