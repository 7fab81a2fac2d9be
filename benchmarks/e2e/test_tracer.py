"""Tests of the benchmark's tracer and workloads.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; the tier-1
suite (``testpaths = ["tests"]``) does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
import time

import pytest

import tracer as tracing
from tracer import Tracer
from workloads import WORKLOADS, CampaignWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2

    def inner():
        clock.t += 1
        traced_leaf()  # same layer as outer: the enclosing layer passes through

    def outer():
        clock.t += 1
        traced_inner()
        clock.t += 3

    traced_leaf = tr.wrap(leaf, "c:leaf")
    traced_inner = tr.wrap(inner, "a:inner")
    tr.wrap(outer, "a:outer")()

    assert tr.self_s == {"c:leaf": 2, "a:inner": 1, "a:outer": 4}
    assert tr.calls == {"c:leaf": 1, "a:inner": 1, "a:outer": 1}
    assert tr.top_s == 7
    assert tr.under == {("c", "a"): 2, ("a", ""): 5}
    assert tr.layer_self_s() == {"a": 5, "c": 2}
    assert tr.layer_under("c", ("a",)) == 2


def test_generator_span_excludes_consumer_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    class Engine:
        backtracks = 0

        def solutions(self):
            for i in range(3):
                clock.t += 1
                self.backtracks += 2
                yield i
            clock.t += 0.5

    Engine.solutions = tr.wrap_generator(
        Engine.solutions, "g:solutions", yields="g.items",
        delta=("g.backtracks", "backtracks"),
    )

    def consume():
        for _ in Engine().solutions():
            clock.t += 10

    tr.wrap(consume, "c:consume")()
    assert tr.self_s == {"g:solutions": 3.5, "c:consume": 30}
    assert tr.calls["g:solutions"] == 4  # three items and the exhausting resume
    assert tr.counts == {"g.items": 3, "g.backtracks": 6}


def test_abandoned_generator_keeps_counts():
    tr = Tracer(clock=FakeClock())

    def gen():
        yield from range(5)

    items = tr.wrap_generator(gen, "g:gen", yields="g.items")()
    assert next(items) == 0 and next(items) == 1
    assert tr.counts == {"g.items": 2}
    assert tr._stack == []


def _fork_item(tr: Tracer) -> None:
    tr.wrap(lambda: None, "campaign.worker:run_item",
            before=Tracer.adopt_process, after=Tracer.flush_part)()


def test_forked_worker_resets_inherited_totals(tmp_path):
    tr = Tracer(parts_dir=str(tmp_path))
    tr.wrap(lambda: None, "campaign.warm:build")()

    def runner():
        # fork while a parent span is open, as the campaign pool does
        proc = multiprocessing.get_context("fork").Process(target=_fork_item, args=(tr,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    tr.wrap(runner, "campaign.runner:run")()
    parts = os.listdir(tmp_path)
    assert len(parts) == 1
    with open(tmp_path / parts[0], encoding="utf-8") as handle:
        child = json.load(handle)
    assert child["calls"] == {"campaign.worker:run_item": 1}
    assert tr.absorb_parts() == 1
    assert tr.calls == {
        "campaign.warm:build": 1,
        "campaign.runner:run": 1,
        "campaign.worker:run_item": 1,
    }


def _traced_attributes():
    """(owner, name) of every traced wrapper reachable from repro."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == mod_name
        ]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                value = getattr(value, "__func__", value)
                if hasattr(value, "__traced_site__"):
                    found.append((owner, name))
    return found


def test_uninstall_restores_every_original():
    from repro.atpg import context
    from repro.simulation import compiled

    tr = Tracer()
    tracing.install_repro(tr)
    try:
        patched = tr.patched
        assert len(patched) > 40
        assert _traced_attributes()
        for owner, name, raw in patched:
            assert vars(owner)[name] is not raw
    finally:
        tr.uninstall()
    for owner, name, raw in patched:
        assert vars(owner)[name] is raw
    assert tr.patched == []
    assert _traced_attributes() == []
    assert context.compile_circuit is compiled.compile_circuit


def test_end_to_end_metrics_match_benchmark_json():
    import run

    one_run = {
        "run_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0,
        "fault_s": [0.001, 0.002, 0.004], "total_faults": 10,
        "detected": 5, "untestable": 1, "vectors": 4,
    }
    values = run.end_to_end([one_run], [0.2])
    assert set(values) == {m["name"] for m in BENCH["end_to_end"]}
    assert values["fault_ms_p50"] == pytest.approx(2.0)
    assert values["fault_efficiency"] == pytest.approx(0.6)


def _on_s27(workload):
    if isinstance(workload, CampaignWorkload):
        return dataclasses.replace(workload, circuits=("s27",))
    return dataclasses.replace(workload, circuit="s27")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_s27_smoke_run_of_each_workload_shape(name, tmp_path):
    workload = _on_s27(WORKLOADS[name])
    started = time.perf_counter()
    tr = Tracer(parts_dir=str(tmp_path / "parts"))
    os.makedirs(tr.parts_dir)
    tracing.install_repro(tr)
    try:
        state = workload.setup(7)
        setup = tr.layer_self_s()
        tr.reset()
        t0 = time.perf_counter()
        result = workload.run(state, str(tmp_path))
        run_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    tr.absorb_parts()
    outcome = workload.summarize(state, result, str(tmp_path))
    assert workload.regrade(state, result) == 0
    assert outcome.detected and outcome.failed_ops == 0
    assert len(outcome.fault_s) > 0

    m = tracing.repro_layer_metrics(
        setup, tr, run_s, 0.1,
        solve_s=outcome.extra.get("solve_s", 0.0),
        workers=int(outcome.extra.get("workers", 0)),
        items_retried=int(outcome.extra.get("items_retried", 0)),
    )
    assert m["atpg.hitec.calls"] > 0
    assert m["faults.collapse.self_s"] > 0
    assert m["trace.other_share"] <= 0.10
    # run.py adds trace.overhead; every declared per-layer metric exists
    assert set(m) | {"trace.overhead"} == {x["name"] for x in BENCH["per_layer"]}
    if isinstance(workload, CampaignWorkload):
        # every worker's totals reached the parent, and none twice
        assert m["campaign.worker.items"] == outcome.operations
        assert tr.calls["hybrid.driver:run"] == outcome.operations
        assert tr.calls["campaign.warm:build"] == 1
    assert time.perf_counter() - started < 30
