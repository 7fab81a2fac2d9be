"""Campaign plumbing: spec hash compatibility, warm plans, end-to-end."""

import json

import pytest

from repro.campaign import CampaignError, CampaignRunner, CampaignSpec
from repro.campaign.warm import CampaignWarmState
from repro.policy.dataset import dataset_from_reports
from repro.policy.model import train_policy

from .test_model import v1_doc


def merged(result):
    return {
        name: (m.coverage, sorted(m.detected), m.vectors, m.blocks)
        for name, m in result.circuits.items()
    }


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    """Train a policy on one s27 campaign's own report."""
    tmp = tmp_path_factory.mktemp("train")
    spec = CampaignSpec(circuits=("s27",), seed=3)
    result = CampaignRunner(spec, str(tmp / "train.jsonl")).run()
    policy = train_policy(dataset_from_reports([result.report]))
    path = str(tmp / "policy.json")
    policy.save(path)
    return path


class TestSpecCompatibility:
    def test_hash_unchanged_without_policy(self):
        spec = CampaignSpec(circuits=("s27",), seed=3)
        data = spec.to_dict()
        assert "policy_file" not in data
        # a spec parsed from a pre-policy document hashes identically
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(data))
        ).spec_hash() == spec.spec_hash()

    def test_policy_file_changes_hash(self, policy_file):
        base = CampaignSpec(circuits=("s27",), seed=3)
        steered = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=policy_file
        )
        assert steered.spec_hash() != base.spec_hash()
        assert steered.to_dict()["policy_file"] == policy_file

    def test_policy_file_roundtrips(self, policy_file):
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=policy_file
        )
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.policy_file == policy_file
        assert clone.spec_hash() == spec.spec_hash()


class TestWarmState:
    def test_warm_build_precomputes_plans(self, policy_file):
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=policy_file
        )
        state = CampaignWarmState.build(spec)
        warm = state.circuits["s27"]
        assert warm.policy_plan is not None
        assert warm.policy_plan.circuit == "s27"
        assert set(warm.policy_plan.start_passes) == {
            str(f) for f in warm.faults
        }

    def test_unreadable_policy_fails_the_build(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=str(bad)
        )
        with pytest.raises(CampaignError):
            CampaignWarmState.build(spec)

    def test_v1_policy_fails_before_the_journal(self, tmp_path):
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(v1_doc()))
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=str(old)
        )
        journal = tmp_path / "c.jsonl"
        with pytest.raises(CampaignError, match="retrain") as exc:
            CampaignRunner(spec, str(journal)).run()
        assert "\n" not in str(exc.value)
        assert not journal.exists()

    def test_plainspec_build_has_no_plans(self):
        spec = CampaignSpec(circuits=("s27",), seed=3)
        state = CampaignWarmState.build(spec)
        assert state.circuits["s27"].policy_plan is None


class TestEndToEnd:
    def test_policy_campaign_matches_static_coverage(
        self, tmp_path, policy_file
    ):
        static = CampaignRunner(
            CampaignSpec(circuits=("s27",), seed=3),
            str(tmp_path / "static.jsonl"),
        ).run()
        steered = CampaignRunner(
            CampaignSpec(
                circuits=("s27",), seed=3, policy_file=policy_file
            ),
            str(tmp_path / "steered.jsonl"),
        ).run()
        assert merged(steered) == merged(static)

    def test_policy_campaign_resumes_identically(
        self, tmp_path, policy_file
    ):
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=policy_file
        )
        journal = str(tmp_path / "steered.jsonl")
        first = CampaignRunner(spec, journal).run()
        again = CampaignRunner.resume(journal)
        assert merged(again) == merged(first)

    def test_policy_telemetry_in_report(self, tmp_path, policy_file):
        spec = CampaignSpec(
            circuits=("s27",), seed=3, policy_file=policy_file
        )
        result = CampaignRunner(spec, str(tmp_path / "c.jsonl")).run()
        counters = result.report.metrics.get("counters", {})
        policy_keys = [
            k for k in counters if k.startswith("atpg.policy.")
        ]
        assert policy_keys == ["atpg.policy.pass_skips"]

    def test_each_deferred_fault_counts_once(self, tmp_path, policy_file):
        """Items count skips among their own targets only, so a policy
        that starts all 26 s27 faults at the final pass reports two
        skips per fault over 26 items, not two per fault per item."""
        with open(policy_file) as handle:
            data = json.load(handle)
        data["models"]["pass"].update(bias=3.0, trees=[])
        defer_all = tmp_path / "defer_all.json"
        defer_all.write_text(json.dumps(data))
        spec = CampaignSpec(
            circuits=("s27",), seed=3, shard_size=1,
            policy_file=str(defer_all),
        )
        result = CampaignRunner(spec, str(tmp_path / "c.jsonl")).run()
        assert result.items_done == 26
        counters = result.report.metrics["counters"]
        assert counters["atpg.policy.pass_skips"] == 2 * 26

    def test_missing_policy_file_fails_loudly(self, tmp_path):
        spec = CampaignSpec(
            circuits=("s27",),
            seed=3,
            policy_file=str(tmp_path / "gone.json"),
        )
        runner = CampaignRunner(spec, str(tmp_path / "c.jsonl"))
        with pytest.raises(CampaignError):
            runner.run()
