"""HTTP layer: routing, error mapping, SSE streams, report round-trip."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.service import Router, ServiceError, start_service

SPEC = {
    "circuits": ["s27"],
    "name": "svc-roundtrip",
    "seed": 3,
    "shard_size": 8,
    "passes": 2,
}

#: Host/run-dependent report fields the equivalence check must ignore.
VOLATILE_FIELDS = ("wall_time_s", "cpu_time_s", "kernel_compile_s", "jobs")


class TestRouter:
    def router(self):
        router = Router()
        router.add("GET", "/jobs", lambda req: "list")
        router.add("GET", "/jobs/{job_id}", lambda req, job_id: job_id)
        router.add("POST", "/jobs/{job_id}/cancel", lambda req, job_id: job_id)
        return router

    def test_static_and_parameterized_routes(self):
        router = self.router()
        handler, params = router.resolve("GET", "/jobs")
        assert params == {} and handler(None) == "list"
        handler, params = router.resolve("GET", "/jobs/abc123")
        assert params == {"job_id": "abc123"}
        _, params = router.resolve("POST", "/jobs/abc123/cancel")
        assert params == {"job_id": "abc123"}

    def test_unknown_path_is_404(self):
        with pytest.raises(ServiceError) as exc:
            self.router().resolve("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self):
        with pytest.raises(ServiceError) as exc:
            self.router().resolve("DELETE", "/jobs")
        assert exc.value.status == 405

    def test_url_escapes_decoded_in_params(self):
        _, params = self.router().resolve("GET", "/jobs/a%20b")
        assert params == {"job_id": "a b"}


def request(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def read_sse(base, path, frames):
    """Collect (event, payload) SSE frames until the stream ends."""
    with urllib.request.urlopen(base + path) as resp:
        event = None
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                frames.append((event, json.loads(line[len("data: "):])))
                if event in ("end", "error"):
                    return


class ServiceHarness:
    """One in-process service; HTTP calls run in executor threads."""

    def __init__(self, root, **kwargs):
        self.root = root
        self.kwargs = kwargs
        self.base = None

    async def __aenter__(self):
        self.server, self.manager, (host, port) = await start_service(
            str(self.root), poll_interval=0.02, **self.kwargs
        )
        self.base = f"http://{host}:{port}"
        return self

    async def __aexit__(self, *exc):
        await self.server.close()
        await self.manager.stop()

    async def request(self, method, path, body=None):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, request, self.base, method, path, body
        )

    async def stream(self, path, timeout=60.0):
        """Run a blocking SSE client in a thread; await its frames."""
        frames = []
        thread = threading.Thread(
            target=read_sse, args=(self.base, path, frames), daemon=True
        )
        thread.start()
        for _ in range(int(timeout / 0.02)):
            if not thread.is_alive():
                return frames
            await asyncio.sleep(0.02)
        raise AssertionError(f"SSE stream {path} did not end")

    async def wait_done(self, job_id, timeout=120.0):
        for _ in range(int(timeout / 0.05)):
            _, body = await self.request("GET", f"/jobs/{job_id}")
            if body["state"] in ("done", "failed", "cancelled"):
                return body
            await asyncio.sleep(0.05)
        raise AssertionError("job never finished")


def comparable(report_dict):
    data = {k: v for k, v in report_dict.items() if k not in VOLATILE_FIELDS}
    # wall-clock leaks into metrics histograms and per-row timings too
    data.pop("metrics", None)
    for key in ("faults", "passes"):
        data[key] = [
            {k: v for k, v in row.items() if k != "time_s"}
            for row in data.get(key, [])
        ]
    return data


class TestServiceEndToEnd:
    def test_submit_stream_report_roundtrip(self, tmp_path):
        # the HITEC baseline proves facts, so the job has a knowledge sidecar
        spec = dict(SPEC, baseline=True)

        async def scenario():
            direct_journal = str(tmp_path / "direct.jsonl")
            async with ServiceHarness(tmp_path / "svc") as svc:
                status, body = await svc.request(
                    "POST", "/jobs", {"spec": spec, "client": "t"}
                )
                assert status == 201 and body["created"]
                job_id = body["job"]
                assert job_id == CampaignSpec.from_dict(spec).spec_hash()

                # resubmission dedups instead of recomputing
                status, again = await svc.request("POST", "/jobs", {"spec": spec})
                assert status == 200 and not again["created"]
                assert again["job"] == job_id

                frames = await svc.stream(f"/jobs/{job_id}/events")
                assert frames[0][0] == "job"
                assert frames[-1][0] == "end"
                assert frames[-1][1]["state"] == "done"
                journal_kinds = [
                    f[1]["type"] for f in frames if f[0] == "journal"
                ]
                assert journal_kinds[0] == "campaign"
                assert journal_kinds[-1] == "merged"
                assert "item_done" in journal_kinds

                final = await svc.wait_done(job_id)
                assert final["state"] == "done"
                assert final["summary"]["fault_coverage"] == 1.0

                status, served = await svc.request(
                    "GET", f"/jobs/{job_id}/report"
                )
                assert status == 200

                status, knowledge = await svc.request(
                    "GET", f"/jobs/{job_id}/knowledge"
                )
                assert status == 200
                assert knowledge["schema"] == "repro-knowledge/v1"

                status, diff = await svc.request(
                    "GET", f"/jobs/{job_id}/report/diff?against={job_id}"
                )
                assert status == 200
                assert all(
                    row["delta"] == 0 for row in diff["fields"].values()
                )
            return served, direct_journal

        served, direct_journal = asyncio.run(scenario())

        # the served report must match a direct campaign run of the same
        # spec, modulo volatile host/timing fields
        direct = CampaignRunner(
            CampaignSpec.from_dict(spec), direct_journal
        ).run()
        assert comparable(served) == comparable(direct.report.to_dict())

    def test_stream_of_finished_job_replays_and_ends(self, tmp_path):
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                _, body = await svc.request("POST", "/jobs", {"spec": SPEC})
                await svc.wait_done(body["job"])
                frames = await svc.stream(f"/jobs/{body['job']}/events")
                kinds = [f[0] for f in frames]
                assert kinds[0] == "job" and kinds[-1] == "end"
                assert kinds.count("journal") >= 3

        asyncio.run(scenario())

    def test_error_statuses(self, tmp_path):
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                assert (await svc.request("GET", "/healthz"))[0] == 200
                assert (await svc.request("GET", "/nope"))[0] == 404
                assert (await svc.request("DELETE", "/jobs"))[0] == 405
                assert (await svc.request("GET", "/jobs/ffff"))[0] == 404
                status, body = await svc.request("POST", "/jobs", {"spec": 5})
                assert status == 400 and "error" in body
                status, _ = await svc.request(
                    "POST", "/jobs", {"spec": {"circuits": []}}
                )
                assert status == 400
                status, _ = await svc.request(
                    "POST", "/jobs",
                    {"spec": dict(SPEC, circuits=["no-such"]) },
                )
                assert status == 400
                # a spec may not name a backend, even a registered one
                for backend in ("numpy", "codegen"):
                    status, body = await svc.request(
                        "POST", "/jobs", {"spec": dict(SPEC, backend=backend)}
                    )
                    assert status == 400 and repr(backend) in body["error"]
                # a removed knob is an unknown key, not an alias
                status, body = await svc.request(
                    "POST", "/jobs",
                    {"spec": dict(SPEC, knowledge_broadcast=True)},
                )
                assert status == 400
                assert "unknown spec keys: knowledge_broadcast" in (
                    body["error"]
                )
                status, body = await svc.request(
                    "POST", "/jobs", {"spec": dict(SPEC, width=0)}
                )
                assert status == 400
                assert "width must be at least 1" in body["error"]
                status, _ = await svc.request(
                    "GET", "/jobs/ffff/report/diff"
                )
                assert status == 404  # unknown job wins over missing param

        asyncio.run(scenario())

    def test_queue_full_maps_to_429(self, tmp_path):
        async def scenario():
            # no dispatcher interference: drown the queue faster than two
            # drill jobs can drain by bounding it at 1
            async with ServiceHarness(tmp_path, max_queue=1) as svc:
                specs = [
                    dict(SPEC, seed=i, synthetic_item_seconds=0.2,
                         fault_limit=4, shard_size=1)
                    for i in range(8)
                ]
                statuses = []
                for spec in specs:
                    status, _ = await svc.request(
                        "POST", "/jobs", {"spec": spec}
                    )
                    statuses.append(status)
                assert 429 in statuses

        asyncio.run(scenario())

    def test_upload_circuit_then_submit_it(self, tmp_path):
        bench = (
            "# tiny\n"
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
            "y = AND(a, b)\n"
        )
        async def scenario():
            async with ServiceHarness(tmp_path) as svc:
                status, body = await svc.request(
                    "POST", "/circuits", {"bench": bench}
                )
                assert status == 201
                assert body["inputs"] == 2 and body["outputs"] == 1
                # idempotent: same content, same path
                _, again = await svc.request(
                    "POST", "/circuits", {"bench": bench}
                )
                assert again["path"] == body["path"]
                status, job = await svc.request(
                    "POST", "/jobs",
                    {"spec": dict(SPEC, circuits=[body["path"]])},
                )
                assert status == 201
                final = await svc.wait_done(job["job"])
                assert final["state"] == "done"

                status, _ = await svc.request(
                    "POST", "/circuits", {"bench": "y = AND(a\n"}
                )
                assert status == 400

        asyncio.run(scenario())
