"""The ATPG service API: routes, SSE progress streams, and ``serve``.

Endpoints (all JSON unless noted):

====== ================================ =====================================
GET    ``/healthz``                     liveness probe
GET    ``/stats``                       queue depth, job states, telemetry
POST   ``/circuits``                    upload a ``.bench`` netlist
POST   ``/policies``                    upload a ``repro-policy/v2`` artifact
POST   ``/jobs``                        submit a campaign spec (idempotent)
GET    ``/jobs``                        list jobs
GET    ``/jobs/{id}``                   job detail + live journal progress
POST   ``/jobs/{id}/cancel``            cancel (cooperative when running)
POST   ``/jobs/{id}/resume``            requeue a cancelled/failed job
GET    ``/jobs/{id}/events``            SSE progress stream (journal tail)
GET    ``/jobs/{id}/report``            merged ``repro-run-report/v1``
GET    ``/jobs/{id}/report/diff``       diff against ``?against=<job>``
GET    ``/jobs/{id}/knowledge``         ``repro-knowledge/v1`` sidecar
====== ================================ =====================================

The SSE stream tails the campaign's JSONL journal with
:class:`~repro.campaign.journal.JournalTail` — the same torn-tail-safe
reader the resume path uses — so a stream opened at any moment (before
the job starts, mid-run, after completion) replays every durable event
exactly once and then follows live appends.  Frames:

* ``job``      — the job document, sent first;
* ``journal``  — one journal event, in order;
* ``end``      — the final job document; the stream closes after it;
* ``error``    — the journal turned unreadable; the stream closes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from ..campaign import CampaignError, CampaignSpec, JournalTail
from ..circuit.bench import load_bench
from ..circuits.resolve import resolve_circuit
from ..clock import wall
from ..policy import FaultPolicy, PolicyError
from ..telemetry import Recorder, RunReport, TelemetryRecorder, diff_reports
from .http import EventStream, HttpServer, Request, Response, Router, ServiceError
from .jobs import JobManager, TERMINAL_STATES

#: Identifier reported by ``/healthz``.
SERVICE_SCHEMA = "repro-service/v1"


def _spec_from_request(data: Dict[str, Any]) -> CampaignSpec:
    """Parse the submitted spec; every validation error becomes a 400."""
    spec_data = data.get("spec", data)
    if not isinstance(spec_data, dict):
        raise ServiceError(400, "spec must be a JSON object")
    try:
        return CampaignSpec.from_dict(spec_data)
    except (CampaignError, TypeError) as exc:
        raise ServiceError(400, f"invalid spec: {exc}") from None


class ServiceApp:
    """Handlers bound to one :class:`JobManager`."""

    def __init__(self, manager: JobManager):
        self.manager = manager

    def router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self.healthz)
        router.add("GET", "/stats", self.stats)
        router.add("POST", "/circuits", self.upload_circuit)
        router.add("POST", "/policies", self.upload_policy)
        router.add("POST", "/jobs", self.submit)
        router.add("GET", "/jobs", self.list_jobs)
        router.add("GET", "/jobs/{job_id}", self.job_detail)
        router.add("POST", "/jobs/{job_id}/cancel", self.cancel)
        router.add("POST", "/jobs/{job_id}/resume", self.resume)
        router.add("GET", "/jobs/{job_id}/events", self.events)
        router.add("GET", "/jobs/{job_id}/report", self.report)
        router.add("GET", "/jobs/{job_id}/report/diff", self.report_diff)
        router.add("GET", "/jobs/{job_id}/knowledge", self.knowledge)
        return router

    # -- service -------------------------------------------------------
    def healthz(self, request: Request) -> Response:
        return Response.json({"status": "ok", "schema": SERVICE_SCHEMA})

    def stats(self, request: Request) -> Response:
        return Response.json(self.manager.stats())

    # -- circuits ------------------------------------------------------
    def upload_circuit(self, request: Request) -> Response:
        """Store an uploaded ``.bench`` netlist under its content hash.

        The returned ``path`` is what a subsequent spec's ``circuits``
        entry should reference.  Content addressing makes uploads
        idempotent and keeps spec hashes stable: the same netlist always
        resolves to the same path.
        """
        data = request.json()
        source = data.get("bench")
        if not isinstance(source, str) or not source.strip():
            raise ServiceError(400, "upload needs a non-empty 'bench' field")
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
        path = os.path.join(self.manager.uploads_dir, f"{digest}.bench")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            try:
                circuit = load_bench(path)
            except Exception as exc:  # noqa: BLE001 — report parse errors
                os.unlink(path)  # reject bad uploads atomically
                raise ServiceError(
                    400, f"bench netlist does not parse: {exc}"
                ) from None
            self.manager.telemetry.count("service.circuits.uploaded")
        else:
            circuit = load_bench(path)
        return Response.json(
            {
                "path": path,
                "circuit": circuit.name,
                "inputs": len(circuit.inputs),
                "outputs": len(circuit.outputs),
                "flip_flops": len(circuit.flops),
            },
            status=201,
        )

    # -- policies ------------------------------------------------------
    def upload_policy(self, request: Request) -> Response:
        """Store an uploaded ``repro-policy/v2`` artifact, content-addressed.

        The returned ``path`` is what a subsequent spec's ``policy_file``
        should reference.  The document is validated before it is kept,
        so a spec naming a stored policy can never fail at warm-build
        time on a malformed artifact.
        """
        data = request.json()
        doc = data.get("policy", data)
        try:
            policy = FaultPolicy.from_dict(doc)
        except PolicyError as exc:
            raise ServiceError(400, f"invalid policy: {exc}") from None
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        path = os.path.join(self.manager.policies_dir, f"{digest}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(canonical)
                handle.write("\n")
            self.manager.telemetry.count("service.policies.uploaded")
        return Response.json(
            {
                "path": path,
                "fingerprint": policy.fingerprint,
                "circuits": list(policy.circuits),
                "trained_rows": policy.trained_rows,
            },
            status=201,
        )

    # -- jobs ----------------------------------------------------------
    def submit(self, request: Request) -> Response:
        data = request.json()
        spec = _spec_from_request(data)
        for name in spec.circuits:
            try:
                resolve_circuit(name)
            except Exception as exc:  # noqa: BLE001 — bad circuit -> 400
                raise ServiceError(
                    400, f"cannot resolve circuit {name!r}: {exc}"
                ) from None
        if spec.policy_file:
            try:
                FaultPolicy.load(spec.policy_file)
            except PolicyError as exc:  # missing/invalid artifact -> 400
                raise ServiceError(
                    400, f"cannot load policy {spec.policy_file!r}: {exc}"
                ) from None
        job, created = self.manager.submit(
            spec,
            client=str(data.get("client", "anon")),
            priority=str(data.get("priority", "normal")),
        )
        payload = {"created": created, **job.to_dict()}
        return Response.json(payload, status=201 if created else 200)

    def list_jobs(self, request: Request) -> Response:
        jobs = [job.to_dict() for job in self.manager.jobs.values()]
        jobs.sort(key=lambda j: (j["submitted_ts"], j["job"]))
        return Response.json({"jobs": jobs})

    def job_detail(self, request: Request, job_id: str) -> Response:
        job = self.manager.get(job_id)
        payload = job.to_dict()
        payload["progress"] = self.manager.progress_of(job_id)
        return Response.json(payload)

    def cancel(self, request: Request, job_id: str) -> Response:
        return Response.json(self.manager.cancel(job_id).to_dict())

    def resume(self, request: Request, job_id: str) -> Response:
        return Response.json(self.manager.resume_job(job_id).to_dict())

    # -- results -------------------------------------------------------
    def report(self, request: Request, job_id: str) -> Response:
        return Response.json(self.manager.report_of(job_id))

    def report_diff(self, request: Request, job_id: str) -> Response:
        self.manager.get(job_id)  # unknown job is a 404, not a 400
        against = request.query.get("against")
        if not against:
            raise ServiceError(400, "diff needs ?against=<job id>")
        new = RunReport.from_dict(self.manager.report_of(job_id))
        old = RunReport.from_dict(self.manager.report_of(against))
        rows = diff_reports(new, old)
        return Response.json(
            {
                "schema": "repro-report-diff/v1",
                "new": {"job": job_id, "circuit": new.circuit},
                "old": {"job": against, "circuit": old.circuit},
                "fields": {
                    name: {"new": a, "old": b, "delta": delta}
                    for name, (a, b, delta) in rows.items()
                },
            }
        )

    def knowledge(self, request: Request, job_id: str) -> Response:
        path = self.manager.knowledge_of(job_id)
        with open(path, "rb") as handle:
            return Response(status=200, body=handle.read())

    # -- SSE -----------------------------------------------------------
    def events(self, request: Request, job_id: str) -> EventStream:
        job = self.manager.get(job_id)  # 404 before the stream starts
        return EventStream(self._follow(job))

    async def _follow(self, job) -> AsyncIterator[Tuple[str, Any]]:
        telemetry = self.manager.telemetry
        tail = JournalTail(job.journal_path)
        yield "job", job.to_dict()
        while True:
            try:
                events = tail.poll()
            except CampaignError as exc:
                yield "error", {"error": str(exc)}
                return
            for event in events:
                telemetry.count("service.stream.events")
                ts = event.get("ts")
                if isinstance(ts, (int, float)):
                    # journal timestamps are wall-clock: emission delay
                    # behind the fsynced write is the stream's lag
                    telemetry.observe(
                        "service.stream.lag_s", max(0.0, wall() - ts)
                    )
                yield "journal", event
            if not events and job.state in TERMINAL_STATES:
                yield "end", job.to_dict()
                return
            await asyncio.sleep(self.manager.poll_interval)


def build_app(manager: JobManager) -> Router:
    """The service's router; exposed for tests and embedders."""
    return ServiceApp(manager).router()


async def start_service(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    telemetry: Optional[Recorder] = None,
    **manager_kwargs: Any,
) -> Tuple[HttpServer, JobManager, Tuple[str, int]]:
    """Create, recover, and bind a service; returns it un-served.

    Callers drive the returned :class:`HttpServer` themselves (tests use
    the bound ephemeral port; :func:`serve` runs it forever).
    """
    recorder = telemetry if telemetry is not None else TelemetryRecorder()
    manager = JobManager(root, telemetry=recorder, **manager_kwargs)
    await manager.start()
    server = HttpServer(build_app(manager), telemetry=recorder)
    address = await server.start(host, port)
    return server, manager, address


async def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8437,
    telemetry: Optional[Recorder] = None,
    **manager_kwargs: Any,
) -> None:
    """Run the service until cancelled (the ``repro serve`` entry point)."""
    server, manager, (bound_host, bound_port) = await start_service(
        root, host=host, port=port, telemetry=telemetry, **manager_kwargs
    )
    print(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(state root: {root})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.close()
        await manager.stop()
