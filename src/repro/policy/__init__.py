"""Learned fault-scheduling policy (HybMT-style meta-prediction).

The static Table-I schedule targets every fault in every pass.  The
dispositions accumulated in ``repro-run-report/v1`` documents record
which pass actually resolved each fault — the supervision needed to
*learn* where each fault should start.  This package turns those
reports into a deployable policy:

* :mod:`repro.policy.features` — a per-fault static feature vector
  (SCOAP controllabilities/observability at the fault site, fanout,
  logic depth, sequential depth, fault polarity/type) computed from the
  compiled circuit and its cached SCOAP measures;
* :mod:`repro.policy.dataset` — joins features with mined dispositions
  into rows labeled with the resolving pass;
* :mod:`repro.policy.model` — a dependency-free gradient-boosted
  regression-tree predictor of that pass with deterministic training,
  serialized as a versioned ``repro-policy/v2`` JSON artifact;
* :mod:`repro.policy.schedule` — a
  :class:`~repro.policy.schedule.PolicyPlan` that starts each fault at
  the pass predicted to resolve it.

The final pass of any schedule targets *every* remaining fault
regardless of prediction.  That does not keep coverage: a skipped
targeting can lose a detection, and the test set changes with the
targetings, so a policy can lose detections as well as skip wasted
work.  See ``docs/POLICY.md`` for measurements.
"""

from .features import FEATURE_NAMES, fault_features, feature_vector
from .dataset import Dataset, DatasetRow, dataset_from_reports
from .model import FaultPolicy, PolicyError, train_policy
from .schedule import PolicyPlan, build_plan

__all__ = [
    "FEATURE_NAMES",
    "fault_features",
    "feature_vector",
    "Dataset",
    "DatasetRow",
    "dataset_from_reports",
    "FaultPolicy",
    "PolicyError",
    "train_policy",
    "PolicyPlan",
    "build_plan",
]
