"""POST /policies uploads and policy-steered job submission."""

import asyncio
import os

from repro.campaign import CampaignRunner, CampaignSpec
from repro.policy.dataset import dataset_from_reports
from repro.policy.model import FaultPolicy, train_policy

from ..policy.test_model import shrink_ga_doc
from .test_http import SPEC, ServiceHarness


def trained_policy_doc(tmp_path):
    result = CampaignRunner(
        CampaignSpec.from_dict(SPEC), str(tmp_path / "train.jsonl")
    ).run()
    policy = train_policy(dataset_from_reports([result.report]))
    return policy.to_dict()


class TestPolicyEndpoint:
    def test_upload_validate_and_submit(self, tmp_path):
        doc = trained_policy_doc(tmp_path)

        async def scenario():
            async with ServiceHarness(tmp_path / "svc") as svc:
                status, body = await svc.request(
                    "POST", "/policies", {"policy": doc}
                )
                assert status == 201
                assert body["circuits"] == ["s27"]
                assert body["fingerprint"] == doc["fingerprint"]
                path = body["path"]

                # idempotent: same document, same content address
                _, again = await svc.request(
                    "POST", "/policies", {"policy": doc}
                )
                assert again["path"] == path

                status, job = await svc.request(
                    "POST", "/jobs",
                    {"spec": dict(SPEC, policy_file=path)},
                )
                assert status == 201
                final = await svc.wait_done(job["job"])
                assert final["state"] == "done"
                assert final["summary"]["fault_coverage"] == 1.0

        asyncio.run(scenario())

    def test_invalid_policy_rejected(self, tmp_path):
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                status, body = await svc.request(
                    "POST", "/policies", {"policy": {"schema": "nope"}}
                )
                assert status == 400 and "error" in body
                # nothing persisted for the rejected upload
                assert not list(
                    (tmp_path / "policies").glob("*.json")
                )

        asyncio.run(scenario())

    def test_shrink_ga_policy_rejected(self, tmp_path):
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                status, body = await svc.request(
                    "POST", "/policies", {"policy": shrink_ga_doc()}
                )
                assert status == 400
                assert "'shrink_ga' was removed" in body["error"]
                assert "\n" not in body["error"]

        asyncio.run(scenario())

    def test_submit_with_missing_policy_file_is_400(self, tmp_path):
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                status, body = await svc.request(
                    "POST", "/jobs",
                    {"spec": dict(
                        SPEC, policy_file=str(tmp_path / "gone.json")
                    )},
                )
                assert status == 400 and "error" in body

        asyncio.run(scenario())

    def test_policy_job_matches_direct_run(self, tmp_path):
        doc = trained_policy_doc(tmp_path)

        async def scenario():
            async with ServiceHarness(tmp_path / "svc") as svc:
                _, upload = await svc.request(
                    "POST", "/policies", {"policy": doc}
                )
                spec = dict(SPEC, policy_file=upload["path"])
                _, job = await svc.request(
                    "POST", "/jobs", {"spec": spec}
                )
                final = await svc.wait_done(job["job"])
                assert final["state"] == "done"
                _, report = await svc.request(
                    "GET", f"/jobs/{job['job']}/report"
                )
                return spec, report

        spec_data, served = asyncio.run(scenario())
        direct = CampaignRunner(
            CampaignSpec.from_dict(spec_data),
            str(tmp_path / "direct.jsonl"),
        ).run()
        assert served["fault_coverage"] == (
            direct.report.fault_coverage
        )
        assert served["detected"] == direct.report.detected
        assert served["vectors"] == direct.report.vectors

        # policy counters rolled up into the served report
        counters = served.get("metrics", {}).get("counters", {})
        assert any(k.startswith("atpg.policy.") for k in counters)

    def test_report_of_a_job_whose_policy_is_gone_is_a_4xx(self, tmp_path):
        """Re-merging a report reads the spec's warm state, policy plan
        included; a deleted artifact is the client's 409, not a 500."""
        policy = str(tmp_path / "policy.json")
        FaultPolicy.from_dict(trained_policy_doc(tmp_path)).save(policy)
        spec = CampaignSpec.from_dict(dict(SPEC, policy_file=policy))
        root = tmp_path / "svc"
        root.mkdir()
        CampaignRunner(spec, str(root / f"{spec.spec_hash()}.jsonl")).run()
        os.remove(policy)

        async def scenario():
            async with ServiceHarness(root) as svc:
                return await svc.request(
                    "GET", f"/jobs/{spec.spec_hash()}/report"
                )

        status, body = asyncio.run(scenario())
        assert status == 409
        assert "policy" in body["error"] and "\n" not in body["error"]
