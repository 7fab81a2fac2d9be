"""POST /policies uploads and policy-steered job submission."""

import asyncio
import json
import os

from repro.campaign import CampaignRunner, CampaignSpec
from repro.policy.dataset import dataset_from_reports
from repro.policy.model import FaultPolicy, train_policy

from ..policy.test_model import MALFORMED, malformed_doc, shrink_ga_doc
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
        """A shrink_ga artifact is a v1 artifact: retrain it."""
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                status, body = await svc.request(
                    "POST", "/policies", {"policy": shrink_ga_doc()}
                )
                assert status == 400
                assert "repro-policy/v1" in body["error"]
                assert "retrain" in body["error"]
                assert "\n" not in body["error"]

        asyncio.run(scenario())

    def test_malformed_policies_rejected(self, tmp_path):
        """Each malformed artifact is a one-line 400, on upload and when
        a submitted spec names it, never a 500."""
        async def scenario():
            async with ServiceHarness(tmp_path / "svc") as svc:
                for name, edit in MALFORMED:
                    doc = malformed_doc(edit)
                    status, body = await svc.request(
                        "POST", "/policies", {"policy": doc}
                    )
                    assert status == 400, name
                    assert "\n" not in body["error"], name
                    path = tmp_path / f"{name}.json"
                    path.write_text(json.dumps(doc))
                    status, body = await svc.request(
                        "POST", "/jobs",
                        {"spec": dict(SPEC, policy_file=str(path))},
                    )
                    assert status == 400, name
                    assert "\n" not in body["error"], name

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
        # the training run resolved every fault in pass 1; start every
        # fault at the final pass instead, so that every item skips
        doc["models"]["pass"].update(bias=2.0, trees=[])

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
        skips = direct.report.metrics["counters"]["atpg.policy.pass_skips"]
        assert counters["atpg.policy.pass_skips"] == skips > 0

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
