"""Dependency-free gradient-boosted regression trees + the policy artifact.

The predictor is deliberately small: boosted CART regression trees
(depth ≤ 3 by default) fit with exact greedy least-squares splits over
per-feature value boundaries.  Training is fully deterministic — no
sampling, no randomized tie-breaks (ties resolve to the lowest feature
index and lowest threshold) — so the same dataset always yields the
same artifact byte for byte, which the campaign layer's reproducibility
story depends on.

A :class:`FaultPolicy` bundles three boosted models over the shared
:data:`~repro.policy.features.FEATURE_NAMES` input layout:

* ``detect`` — probability-like score that targeting the fault yields a
  detection at all (label: 1.0 for ``detected`` rows, else 0.0);
* ``pass`` — regression to the pass number that resolved the fault;
* ``cost`` — regression to ``log1p(backtracks + ga_generations)``, the
  cheap-first ordering key.

Artifacts serialize as versioned ``repro-policy/v1`` JSON with a
circuit-family fingerprint; :func:`FaultPolicy.load` validates before
use and raises :class:`PolicyError` on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .features import FEATURE_NAMES

#: Identifier embedded in every serialized policy artifact.
SCHEMA = "repro-policy/v1"

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
    min_leaf: int,
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
        taken = 0
        b = 0
        for k in range(1, n):
            y = ys[order[k - 1]]
            left_sum += y
            left_sq += y * y
            taken += 1
            if b >= len(boundaries) or boundaries[b] != k:
                continue
            b += 1
            if taken < min_leaf or n - taken < min_leaf:
                continue
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            sse = (left_sq - left_sum * left_sum / taken) + (
                right_sq - right_sum * right_sum / (n - taken)
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
    min_leaf: int,
) -> Dict[str, Any]:
    if depth <= 0 or len(idxs) < 2 * min_leaf:
        return _leaf(ys, idxs)
    split = _best_split(xs, ys, idxs, min_leaf)
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
        "left": _fit_tree(xs, ys, left_idx, depth - 1, min_leaf),
        "right": _fit_tree(xs, ys, right_idx, depth - 1, min_leaf),
    }


def _eval_tree(node: Dict[str, Any], x: Sequence[float]) -> float:
    while "value" not in node:
        branch = "left" if x[node["feature"]] <= node["threshold"] else "right"
        node = node[branch]
    return float(node["value"])


def _validate_tree(node: Any, path: str, problems: List[str]) -> None:
    if not isinstance(node, dict):
        problems.append(f"{path} is not an object")
        return
    if "value" in node:
        if not isinstance(node["value"], (int, float)):
            problems.append(f"{path}.value is not a number")
        return
    for key in ("feature", "threshold", "left", "right"):
        if key not in node:
            problems.append(f"{path} missing {key!r}")
            return
    if not isinstance(node["feature"], int) or node["feature"] < 0:
        problems.append(f"{path}.feature is not a feature index")
    if not isinstance(node["threshold"], (int, float)):
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
        min_leaf: int = 1,
        tol: float = 1e-6,
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
            if max(abs(r) for r in residuals) <= tol:
                break
            tree = _fit_tree(xs, residuals, idxs, max_depth, min_leaf)
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


#: Default action thresholds; overridable per artifact via ``options``.
DEFAULT_OPTIONS: Dict[str, Any] = {
    # faults scoring below this detect probability are deferred to the
    # final mop-up pass
    "defer_threshold": 0.25,
    # reorder the fault list cheap-first by the cost model
    "reorder": True,
}


class FaultPolicy:
    """A trained, serializable fault-scheduling policy."""

    def __init__(
        self,
        detect: BoostedTrees,
        resolve_pass: BoostedTrees,
        cost: BoostedTrees,
        circuits: Sequence[str],
        trained_rows: int,
        feature_names: Sequence[str] = FEATURE_NAMES,
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.detect = detect
        self.resolve_pass = resolve_pass
        self.cost = cost
        self.circuits = tuple(sorted(set(circuits)))
        self.fingerprint = family_fingerprint(self.circuits)
        self.trained_rows = trained_rows
        self.feature_names = tuple(feature_names)
        self.options = dict(DEFAULT_OPTIONS)
        if options:
            self.options.update(options)
        # artifacts written before GA-budget shrinking was removed carry
        # it switched off; only a request to switch it on is an error
        if self.options.pop("shrink_ga", False):
            raise PolicyError(
                "policy option 'shrink_ga' was removed; retrain without it"
            )
        self.options.pop("cheap_cost", None)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "fingerprint": self.fingerprint,
            "circuits": list(self.circuits),
            "trained_rows": self.trained_rows,
            "feature_names": list(self.feature_names),
            "options": dict(self.options),
            "models": {
                "detect": self.detect.to_dict(),
                "pass": self.resolve_pass.to_dict(),
                "cost": self.cost.to_dict(),
            },
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
        models = data["models"]
        policy = cls(
            detect=BoostedTrees.from_dict(models["detect"]),
            resolve_pass=BoostedTrees.from_dict(models["pass"]),
            cost=BoostedTrees.from_dict(models["cost"]),
            circuits=data["circuits"],
            trained_rows=int(data["trained_rows"]),
            feature_names=data["feature_names"],
            options=data.get("options"),
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

    def predict(self, x: Sequence[float]) -> Tuple[float, float, float]:
        """(detect score, resolving pass, cost key) for one feature row."""
        return (
            self.detect.predict(x),
            self.resolve_pass.predict(x),
            self.cost.predict(x),
        )


def validate_policy(data: Any) -> List[str]:
    """Check a parsed document against the v1 policy schema."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["policy must be a JSON object"]
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
        elif not isinstance(data[key], types):
            problems.append(f"key {key!r} has wrong type")
    models = data.get("models")
    if isinstance(models, dict):
        for name in ("detect", "pass", "cost"):
            model = models.get(name)
            if not isinstance(model, dict):
                problems.append(f"models.{name} missing or not an object")
                continue
            for key in ("bias", "learning_rate", "trees"):
                if key not in model:
                    problems.append(f"models.{name} missing {key!r}")
            for pos, tree in enumerate(model.get("trees") or []):
                _validate_tree(
                    tree, f"models.{name}.trees[{pos}]", problems
                )
                if problems:
                    break
    return problems


def train_policy(
    dataset: "Dataset",
    rounds: int = 40,
    max_depth: int = 3,
    learning_rate: float = 0.5,
    options: Optional[Dict[str, Any]] = None,
) -> FaultPolicy:
    """Fit the three models on a mined dataset; fully deterministic."""
    from .dataset import Dataset  # local import: avoid a module cycle

    if not isinstance(dataset, Dataset) or not dataset.rows:
        raise PolicyError("training needs a non-empty dataset")
    xs = dataset.matrix()
    detect = BoostedTrees.fit(
        xs,
        [row.detected for row in dataset.rows],
        rounds=rounds,
        max_depth=max_depth,
        learning_rate=learning_rate,
    )
    resolve = BoostedTrees.fit(
        xs,
        [row.resolve_pass for row in dataset.rows],
        rounds=rounds,
        max_depth=max_depth,
        learning_rate=learning_rate,
    )
    cost = BoostedTrees.fit(
        xs,
        [row.cost for row in dataset.rows],
        rounds=rounds,
        max_depth=max_depth,
        learning_rate=learning_rate,
    )
    return FaultPolicy(
        detect=detect,
        resolve_pass=resolve,
        cost=cost,
        circuits=sorted({row.circuit for row in dataset.rows}),
        trained_rows=len(dataset.rows),
        options=options,
    )
