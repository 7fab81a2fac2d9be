"""Dependency-free gradient-boosted regression trees + the policy artifact.

The predictor is deliberately small: boosted CART regression trees
(depth ≤ 3) fit with exact greedy least-squares splits over per-feature
value boundaries.  Training is fully deterministic — no sampling, no
randomized tie-breaks (ties resolve to the lowest feature index and
lowest threshold) — so the same dataset always yields the same artifact
byte for byte, which the campaign layer's reproducibility story depends
on.

A :class:`FaultPolicy` holds one boosted model over the
:data:`~repro.policy.features.FEATURE_NAMES` input layout: ``pass``, a
regression to the pass number that resolved each fault.  Artifacts
serialize as versioned ``repro-policy/v2`` JSON with a circuit-family
fingerprint; :func:`FaultPolicy.load` validates before use and raises
:class:`PolicyError` on any mismatch.  A ``repro-policy/v1`` artifact,
whose extra models drove the removed deferral and reordering, fails to
load with one line asking for a retrain.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .dataset import Dataset
from .features import FEATURE_NAMES

#: Identifier embedded in every serialized policy artifact.
SCHEMA = "repro-policy/v2"

#: The schema of artifacts written before deferral and reordering were
#: removed; they no longer load.
RETIRED_SCHEMA = "repro-policy/v1"

#: Maximum split candidates examined per feature per node.
MAX_THRESHOLDS = 32


class PolicyError(ValueError):
    """A policy artifact, dataset, or training request is invalid."""


# ----------------------------------------------------------------------
# regression trees


def _leaf(values: Sequence[float], idxs: Sequence[int]) -> Dict[str, Any]:
    total = sum(values[i] for i in idxs)
    return {"value": total / len(idxs) if idxs else 0.0}


def _best_split(
    xs: Sequence[Sequence[float]],
    ys: Sequence[float],
    idxs: List[int],
) -> Optional[Tuple[float, int, float]]:
    """The (sse, feature, threshold) of the best split, or None.

    Deterministic: features are scanned in index order and a candidate
    replaces the incumbent only on a strict SSE improvement, so ties go
    to the lowest feature index / lowest threshold.
    """
    n = len(idxs)
    total = sum(ys[i] for i in idxs)
    total_sq = sum(ys[i] * ys[i] for i in idxs)
    base_sse = total_sq - total * total / n
    best: Optional[Tuple[float, int, float]] = None
    for feat in range(len(xs[idxs[0]])):
        order = sorted(idxs, key=lambda i: xs[i][feat])
        boundaries = [
            k
            for k in range(1, n)
            if xs[order[k - 1]][feat] < xs[order[k]][feat]
        ]
        if not boundaries:
            continue
        if len(boundaries) > MAX_THRESHOLDS:
            stride = len(boundaries) / MAX_THRESHOLDS
            boundaries = [
                boundaries[int(j * stride)] for j in range(MAX_THRESHOLDS)
            ]
        left_sum = 0.0
        left_sq = 0.0
        b = 0
        for k in range(1, n):
            y = ys[order[k - 1]]
            left_sum += y
            left_sq += y * y
            if b >= len(boundaries) or boundaries[b] != k:
                continue
            b += 1
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            sse = (left_sq - left_sum * left_sum / k) + (
                right_sq - right_sum * right_sum / (n - k)
            )
            if sse < base_sse - 1e-12 and (best is None or sse < best[0]):
                lo = xs[order[k - 1]][feat]
                hi = xs[order[k]][feat]
                best = (sse, feat, (lo + hi) / 2.0)
    return best


def _fit_tree(
    xs: Sequence[Sequence[float]],
    ys: Sequence[float],
    idxs: List[int],
    depth: int,
) -> Dict[str, Any]:
    if depth <= 0 or len(idxs) < 2:
        return _leaf(ys, idxs)
    split = _best_split(xs, ys, idxs)
    if split is None:
        return _leaf(ys, idxs)
    _, feat, threshold = split
    left_idx = [i for i in idxs if xs[i][feat] <= threshold]
    right_idx = [i for i in idxs if xs[i][feat] > threshold]
    if not left_idx or not right_idx:
        return _leaf(ys, idxs)
    return {
        "feature": feat,
        "threshold": threshold,
        "left": _fit_tree(xs, ys, left_idx, depth - 1),
        "right": _fit_tree(xs, ys, right_idx, depth - 1),
    }


def _eval_tree(node: Dict[str, Any], x: Sequence[float]) -> float:
    while "value" not in node:
        branch = "left" if x[node["feature"]] <= node["threshold"] else "right"
        node = node[branch]
    return float(node["value"])


def _is_number(value: Any) -> bool:
    """Is ``value`` a finite JSON number?  Booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _validate_tree(node: Any, path: str, problems: List[str]) -> None:
    if not isinstance(node, dict):
        problems.append(f"{path} is not an object")
        return
    if "value" in node:
        if not _is_number(node["value"]):
            problems.append(f"{path}.value is not a number")
        return
    for key in ("feature", "threshold", "left", "right"):
        if key not in node:
            problems.append(f"{path} missing {key!r}")
            return
    feature = node["feature"]
    if (
        isinstance(feature, bool)
        or not isinstance(feature, int)
        or not 0 <= feature < len(FEATURE_NAMES)
    ):
        problems.append(f"{path}.feature is not a feature index")
    if not _is_number(node["threshold"]):
        problems.append(f"{path}.threshold is not a number")
    _validate_tree(node["left"], path + ".left", problems)
    _validate_tree(node["right"], path + ".right", problems)


class BoostedTrees:
    """A boosted ensemble of regression trees (least-squares boosting)."""

    def __init__(
        self,
        bias: float = 0.0,
        learning_rate: float = 0.5,
        trees: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.bias = bias
        self.learning_rate = learning_rate
        self.trees: List[Dict[str, Any]] = trees if trees is not None else []

    @classmethod
    def fit(
        cls,
        xs: Sequence[Sequence[float]],
        ys: Sequence[float],
        rounds: int = 40,
        max_depth: int = 3,
        learning_rate: float = 0.5,
    ) -> "BoostedTrees":
        if not xs:
            raise PolicyError("cannot fit a model on zero rows")
        if len(xs) != len(ys):
            raise PolicyError("feature/label row counts disagree")
        model = cls(bias=sum(ys) / len(ys), learning_rate=learning_rate)
        preds = [model.bias] * len(ys)
        idxs = list(range(len(ys)))
        for _ in range(rounds):
            residuals = [ys[i] - preds[i] for i in idxs]
            if max(abs(r) for r in residuals) <= 1e-6:
                break
            tree = _fit_tree(xs, residuals, idxs, max_depth)
            model.trees.append(tree)
            for i in idxs:
                preds[i] += learning_rate * _eval_tree(tree, xs[i])
        return model

    def predict(self, x: Sequence[float]) -> float:
        out = self.bias
        for tree in self.trees:
            out += self.learning_rate * _eval_tree(tree, x)
        return out

    def mean_abs_error(
        self, xs: Sequence[Sequence[float]], ys: Sequence[float]
    ) -> float:
        if not xs:
            return 0.0
        return sum(
            abs(self.predict(x) - y) for x, y in zip(xs, ys)
        ) / len(xs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bias": self.bias,
            "learning_rate": self.learning_rate,
            "trees": self.trees,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BoostedTrees":
        return cls(
            bias=float(data["bias"]),
            learning_rate=float(data["learning_rate"]),
            trees=list(data["trees"]),
        )


# ----------------------------------------------------------------------
# the policy artifact


def family_fingerprint(circuits: Sequence[str]) -> str:
    """Content hash of the circuit family a policy was trained on."""
    canonical = ",".join(sorted(set(circuits)))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class FaultPolicy:
    """A trained, serializable fault-scheduling policy."""

    def __init__(
        self,
        resolve_pass: BoostedTrees,
        circuits: Sequence[str],
        trained_rows: int,
        feature_names: Sequence[str] = FEATURE_NAMES,
    ) -> None:
        self.resolve_pass = resolve_pass
        self.circuits = tuple(sorted(set(circuits)))
        self.fingerprint = family_fingerprint(self.circuits)
        self.trained_rows = trained_rows
        self.feature_names = tuple(feature_names)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "fingerprint": self.fingerprint,
            "circuits": list(self.circuits),
            "trained_rows": self.trained_rows,
            "feature_names": list(self.feature_names),
            "models": {"pass": self.resolve_pass.to_dict()},
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPolicy":
        problems = validate_policy(data)
        if problems:
            raise PolicyError(
                "invalid policy artifact: " + "; ".join(problems[:5])
            )
        policy = cls(
            resolve_pass=BoostedTrees.from_dict(data["models"]["pass"]),
            circuits=data["circuits"],
            trained_rows=data["trained_rows"],
            feature_names=data["feature_names"],
        )
        if policy.fingerprint != data["fingerprint"]:
            raise PolicyError(
                f"fingerprint {data['fingerprint']!r} does not match the "
                f"artifact's circuit family ({policy.fingerprint!r})"
            )
        return policy

    @classmethod
    def load(cls, path: str) -> "FaultPolicy":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise PolicyError(f"cannot read policy {path!r}: {exc}") from exc
        return cls.from_dict(data)

    # -- prediction ----------------------------------------------------
    def covers(self, circuit_name: str) -> bool:
        """True when the policy was trained on this circuit."""
        return circuit_name in self.circuits

    def predict(self, x: Sequence[float]) -> float:
        """The pass predicted to resolve the fault of one feature row."""
        return self.resolve_pass.predict(x)


def validate_policy(data: Any) -> List[str]:
    """Check a parsed document against the v2 policy schema."""
    if not isinstance(data, dict):
        return ["policy must be a JSON object"]
    if data.get("schema") == RETIRED_SCHEMA:
        return [
            f"{RETIRED_SCHEMA} is no longer read (its deferral and "
            "reordering were removed); retrain it with `repro train-policy`"
        ]
    problems: List[str] = []
    if data.get("schema") != SCHEMA:
        problems.append(
            f"schema must be {SCHEMA!r}, got {data.get('schema')!r}"
        )
    for key, types in (
        ("fingerprint", str),
        ("circuits", list),
        ("trained_rows", int),
        ("feature_names", list),
        ("models", dict),
    ):
        if key not in data:
            problems.append(f"missing key {key!r}")
        elif not isinstance(data[key], types) or isinstance(data[key], bool):
            problems.append(f"key {key!r} has wrong type")
        elif types is list and not all(isinstance(n, str) for n in data[key]):
            problems.append(f"key {key!r} must list strings")
    models = data.get("models")
    if not isinstance(models, dict):
        return problems
    model = models.get("pass")
    if not isinstance(model, dict):
        return problems + ["models.pass missing or not an object"]
    for key in ("bias", "learning_rate"):
        if not _is_number(model.get(key)):
            problems.append(f"models.pass.{key} is not a number")
    trees = model.get("trees")
    if not isinstance(trees, list):
        return problems + ["models.pass.trees is not a list"]
    for pos, tree in enumerate(trees):
        _validate_tree(tree, f"models.pass.trees[{pos}]", problems)
        if problems:
            break
    return problems


def train_policy(dataset: Dataset) -> FaultPolicy:
    """Fit the ``pass`` model on a mined dataset; fully deterministic."""
    if not dataset.rows:
        raise PolicyError("training needs a non-empty dataset")
    resolve = BoostedTrees.fit(
        dataset.matrix(), [row.resolve_pass for row in dataset.rows]
    )
    return FaultPolicy(
        resolve_pass=resolve,
        circuits=sorted({row.circuit for row in dataset.rows}),
        trained_rows=len(dataset.rows),
    )
