"""Boosted-tree models and the repro-policy/v2 artifact."""

import json

import pytest

from repro.policy.dataset import Dataset, DatasetRow
from repro.policy.features import FEATURE_NAMES
from repro.policy.model import (
    BoostedTrees,
    FaultPolicy,
    PolicyError,
    family_fingerprint,
    train_policy,
    validate_policy,
)


def toy_rows(n=24):
    """A learnable synthetic dataset: labels are functions of features."""
    rows = []
    for i in range(n):
        features = {name: 0.0 for name in FEATURE_NAMES}
        features["cc0"] = float(i % 6)
        features["co"] = float(i % 4)
        rows.append(
            DatasetRow(
                circuit="s27",
                fault=f"G{i} s-a-0",
                features=features,
                status="detected" if i % 6 < 4 else "aborted",
                resolve_pass=1.0 + (i % 3),
            )
        )
    return Dataset(rows=rows, reports=1)


def v1_doc(**options):
    """A ``repro-policy/v1`` artifact as it was written before deferral
    and reordering were removed: three models and their options."""
    doc = train_policy(toy_rows()).to_dict()
    model = doc["models"]["pass"]
    doc["schema"] = "repro-policy/v1"
    doc["models"] = {"detect": model, "pass": model, "cost": model}
    doc["options"] = {"defer_threshold": 0.25, "reorder": True, **options}
    return doc


def shrink_ga_doc():
    """A v1 artifact that asks for the removed GA-budget shrinking."""
    return v1_doc(shrink_ga=True, cheap_cost=0.0)


#: Malformed v2 artifacts, each as (name, edit of a valid document).
MALFORMED = [
    ("string-bias", lambda d: d["models"]["pass"].update(bias="x")),
    ("null-learning-rate",
     lambda d: d["models"]["pass"].update(learning_rate=None)),
    ("integer-circuits", lambda d: d.update(circuits=[1, 2])),
    ("feature-out-of-range",
     lambda d: d["models"]["pass"]["trees"].insert(
         0, {"feature": 99, "threshold": 0.5,
             "left": {"value": 0.0}, "right": {"value": 1.0}})),
    ("string-threshold",
     lambda d: d["models"]["pass"]["trees"].insert(
         0, {"feature": 0, "threshold": "0.5",
             "left": {"value": 0.0}, "right": {"value": 1.0}})),
    ("nan-leaf",
     lambda d: d["models"]["pass"]["trees"].insert(0, {"value": float("nan")})),
    ("trees-not-a-list", lambda d: d["models"]["pass"].update(trees=5)),
]


def malformed_doc(edit):
    doc = train_policy(toy_rows()).to_dict()
    edit(doc)
    return doc


class TestBoostedTrees:
    def test_fits_a_simple_function(self):
        xs = [[float(i)] for i in range(16)]
        ys = [1.0 if i >= 8 else 0.0 for i in range(16)]
        model = BoostedTrees.fit(xs, ys, rounds=20, max_depth=2)
        assert model.mean_abs_error(xs, ys) < 0.01
        assert model.predict([0.0]) < 0.2 < 0.8 < model.predict([15.0])

    def test_training_is_deterministic(self):
        xs = [[float(i % 5), float(i % 3)] for i in range(30)]
        ys = [float(i % 7) for i in range(30)]
        a = BoostedTrees.fit(xs, ys).to_dict()
        b = BoostedTrees.fit(xs, ys).to_dict()
        assert a == b

    def test_roundtrip(self):
        xs = [[float(i)] for i in range(10)]
        ys = [float(i * i) for i in range(10)]
        model = BoostedTrees.fit(xs, ys, rounds=10)
        clone = BoostedTrees.from_dict(model.to_dict())
        assert all(
            clone.predict(x) == model.predict(x) for x in xs
        )

    def test_zero_rows_rejected(self):
        with pytest.raises(PolicyError):
            BoostedTrees.fit([], [])

    def test_mismatched_rows_rejected(self):
        with pytest.raises(PolicyError):
            BoostedTrees.fit([[1.0]], [1.0, 2.0])

    def test_early_stop_on_perfect_fit(self):
        xs = [[0.0], [1.0]]
        ys = [0.0, 1.0]
        model = BoostedTrees.fit(xs, ys, rounds=100)
        assert len(model.trees) < 100


class TestTrainPolicy:
    def test_trains_the_pass_model(self):
        rows = toy_rows()
        policy = train_policy(rows)
        assert policy.circuits == ("s27",)
        assert policy.trained_rows == 24
        assert policy.feature_names == FEATURE_NAMES
        # the pass model with the ensemble's own defaults, nothing else
        labels = [row.resolve_pass for row in rows.rows]
        expected = BoostedTrees.fit(rows.matrix(), labels)
        assert policy.resolve_pass.to_dict() == expected.to_dict()
        assert isinstance(policy.predict([0.0] * len(FEATURE_NAMES)), float)

    def test_empty_dataset_rejected(self):
        with pytest.raises(PolicyError):
            train_policy(Dataset())

    def test_training_is_deterministic(self):
        a = train_policy(toy_rows()).to_dict()
        b = train_policy(toy_rows()).to_dict()
        assert a == b


class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        policy = train_policy(toy_rows())
        path = str(tmp_path / "policy.json")
        policy.save(path)
        clone = FaultPolicy.load(path)
        assert clone.to_dict() == policy.to_dict()
        x = [1.0] * len(FEATURE_NAMES)
        assert clone.predict(x) == policy.predict(x)

    def test_serialization_is_byte_stable(self, tmp_path):
        policy = train_policy(toy_rows())
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        policy.save(a)
        train_policy(toy_rows()).save(b)
        assert open(a).read() == open(b).read()

    def test_fingerprint_is_family_hash(self):
        policy = train_policy(toy_rows())
        assert policy.fingerprint == family_fingerprint(["s27"])
        assert family_fingerprint(["b", "a"]) == family_fingerprint(
            ["a", "b", "a"]
        )

    def test_covers(self):
        policy = train_policy(toy_rows())
        assert policy.covers("s27")
        assert not policy.covers("s298")

    def test_missing_file_is_policy_error(self, tmp_path):
        with pytest.raises(PolicyError):
            FaultPolicy.load(str(tmp_path / "nope.json"))

    def test_malformed_json_is_policy_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PolicyError):
            FaultPolicy.load(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        policy = train_policy(toy_rows())
        doc = policy.to_dict()
        doc["schema"] = "repro-policy/v0"
        with pytest.raises(PolicyError):
            FaultPolicy.from_dict(doc)

    def test_tampered_fingerprint_rejected(self):
        doc = train_policy(toy_rows()).to_dict()
        doc["fingerprint"] = "0" * 16
        with pytest.raises(PolicyError):
            FaultPolicy.from_dict(doc)

    def test_shrink_ga_artifact_fails_with_one_line(self, tmp_path):
        """Only v1 artifacts could ask for GA-budget shrinking, and no
        v1 artifact loads."""
        path = tmp_path / "shrink.json"
        path.write_text(json.dumps(shrink_ga_doc()))
        with pytest.raises(PolicyError) as exc:
            FaultPolicy.load(str(path))
        message = str(exc.value)
        assert "repro-policy/v1" in message and "retrain" in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "edit", [edit for _, edit in MALFORMED],
        ids=[name for name, _ in MALFORMED],
    )
    def test_malformed_artifact_is_a_policy_error(self, edit):
        with pytest.raises(PolicyError) as exc:
            FaultPolicy.from_dict(malformed_doc(edit))
        assert "\n" not in str(exc.value)

    def test_validate_reports_tree_problems(self):
        doc = train_policy(toy_rows()).to_dict()
        doc["models"]["pass"]["trees"] = [{"feature": 0}]
        assert validate_policy(doc)

    def test_artifact_is_json(self, tmp_path):
        path = str(tmp_path / "policy.json")
        train_policy(toy_rows()).save(path)
        data = json.load(open(path))
        assert data["schema"] == "repro-policy/v2"
        assert set(data["models"]) == {"pass"}
        assert "options" not in data
