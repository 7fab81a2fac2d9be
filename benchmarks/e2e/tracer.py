"""Outside-in span tracer for the end-to-end benchmark.

The program itself carries no spans at its layer boundaries yet, so the
benchmark makes them from outside: :func:`install_repro` replaces public
functions and methods of ``repro`` with wrappers that open a span on entry
and close it on exit.  :meth:`Tracer.uninstall` puts every original back,
so untraced runs never execute a wrapper.

A span's *self* time is its duration minus the time of the spans it
encloses; per layer the tracer keeps only a call count and a self-time
total, plus the self time split by the nearest enclosing layer (which is
how simulation time under GA fitness is told apart from simulation time
under fault simulation).  Per-fault spans (``generate`` and ``run_item``)
are also kept as Chrome trace events.

Forked campaign workers inherit the wrappers.  On its first call in a new
process the ``run_item`` wrapper drops the totals inherited from the
parent, and after every item it writes the worker's totals to
``<parts_dir>/<pid>.json``; the parent adds them with
:meth:`Tracer.absorb_parts`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Site names are ``<layer>:<call>``; the layer is the part before ``:``.
Site = str


def layer_of(site: Site) -> str:
    return site.split(":", 1)[0]


class Tracer:
    """Span stack plus per-site totals for one process.

    Args:
        clock: time source (seconds); injectable for tests.
        parts_dir: directory forked workers flush their totals to.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        parts_dir: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.parts_dir = parts_dir
        self.pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    # -- state -----------------------------------------------------------
    def reset(self) -> None:
        """Drop every total, counter, event and open span."""
        #: site -> calls
        self.calls: Dict[Site, int] = {}
        #: site -> self seconds
        self.self_s: Dict[Site, float] = {}
        #: (layer, nearest enclosing other layer or "") -> self seconds
        self.under: Dict[Tuple[str, str], float] = {}
        #: named counters filled by result hooks
        self.counts: Dict[str, float] = {}
        #: summed duration of spans opened with an empty stack
        self.top_s = 0.0
        #: Chrome trace events of per-fault spans
        self.events: List[Dict[str, Any]] = []
        # open spans: [layer, enclosing layer, start, child seconds]
        self._stack: List[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, layer: str) -> None:
        stack = self._stack
        if stack:
            parent = stack[-1]
            outer = parent[1] if parent[0] == layer else parent[0]
        else:
            outer = ""
        stack.append([layer, outer, self.clock(), 0.0])

    def exit(self, site: Site) -> Tuple[float, float]:
        """Close the innermost span; return its (start, duration)."""
        layer, outer, start, child = self._stack.pop()
        duration = self.clock() - start
        own = duration - child
        self.calls[site] = self.calls.get(site, 0) + 1
        self.self_s[site] = self.self_s.get(site, 0.0) + own
        key = (layer, outer)
        self.under[key] = self.under.get(key, 0.0) + own
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.top_s += duration
        return start, duration

    # -- wrappers --------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        site: Site,
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        label: Optional[Callable[[tuple], str]] = None,
        before: Optional[Callable[["Tracer"], None]] = None,
        after: Optional[Callable[["Tracer"], None]] = None,
    ) -> Callable:
        """A traced version of ``fn`` recording one ``site`` span per call.

        ``on_result`` sees the call's arguments and result (for counters);
        ``label`` turns the arguments into the name of a Chrome trace
        event, making the span a per-fault span; ``before``/``after`` run
        outside the span.
        """
        layer = layer_of(site)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer)
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, duration = tracer.exit(site)
            if on_result is not None:
                on_result(tracer, args, result)
            if label is not None:
                tracer.events.append({
                    "name": site, "ph": "X", "pid": tracer.pid,
                    "tid": tracer.pid, "ts": start * 1e6,
                    "dur": duration * 1e6, "args": {"item": label(args)},
                })
            if after is not None:
                after(tracer)
            return result

        traced.__traced_site__ = site  # type: ignore[attr-defined]
        return traced

    def wrap_generator(
        self,
        fn: Callable,
        site: Site,
        yields: Optional[str] = None,
        delta: Optional[Tuple[str, str]] = None,
    ) -> Callable:
        """A traced generator function, timed only while it runs.

        Each resumption is one span, so the consumer's work between
        items is not charged to the generator.  ``yields`` names a counter
        of items produced; ``delta`` is ``(counter, attribute)``: after
        every resumption the growth of ``args[0].<attribute>`` is added to
        the counter.
        """
        layer = layer_of(site)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._drive(fn(*args, **kwargs), site, layer, args,
                                 yields, delta)

        traced.__traced_site__ = site  # type: ignore[attr-defined]
        return traced

    def _drive(self, gen, site, layer, args, yields, delta) -> Iterator:
        owner = args[0] if args else None
        last = getattr(owner, delta[1]) if delta else 0
        while True:
            self.enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                self.exit(site)
                self._delta(owner, delta, last)
                return
            except BaseException:
                self.exit(site)
                raise
            self.exit(site)
            if delta:
                last = self._delta(owner, delta, last)
            if yields:
                self.count(yields)
            yield item

    def _delta(self, owner, delta, last) -> int:
        if not delta:
            return 0
        now = getattr(owner, delta[1])
        if now != last:
            self.count(delta[0], now - last)
        return now

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.<name>`` (a module or class attribute) in place."""
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._patches.append((owner, name, raw))

    def patch_everywhere(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that imported it."""
        traced = make(fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) of every active patch."""
        return list(self._patches)

    # -- forked workers ----------------------------------------------------
    def adopt_process(self) -> None:
        """In a forked child: forget the parent's totals and open spans."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.reset()

    def flush_part(self) -> None:
        """Write this process's totals to ``<parts_dir>/<pid>.json``."""
        if self.parts_dir is None:
            return
        path = os.path.join(self.parts_dir, f"{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp, path)

    def absorb_parts(self) -> int:
        """Add every other process's flushed totals; return their count."""
        if self.parts_dir is None or not os.path.isdir(self.parts_dir):
            return 0
        absorbed = 0
        for entry in sorted(os.listdir(self.parts_dir)):
            if not entry.endswith(".json") or entry == f"{self.pid}.json":
                continue
            with open(os.path.join(self.parts_dir, entry), encoding="utf-8") as handle:
                self.add(json.load(handle))
            absorbed += 1
        return absorbed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "under": [[a, b, s] for (a, b), s in self.under.items()],
            "counts": self.counts,
            "events": self.events,
        }

    def add(self, data: Dict[str, Any]) -> None:
        """Sum another process's :meth:`to_dict` totals into this one."""
        for site, n in data["calls"].items():
            self.calls[site] = self.calls.get(site, 0) + n
        for site, s in data["self_s"].items():
            self.self_s[site] = self.self_s.get(site, 0.0) + s
        for a, b, s in data["under"]:
            self.under[(a, b)] = self.under.get((a, b), 0.0) + s
        for name, n in data["counts"].items():
            self.count(name, n)
        self.events.extend(data["events"])

    # -- reading totals ----------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for site, s in self.self_s.items():
            layer = layer_of(site)
            out[layer] = out.get(layer, 0.0) + s
        return out

    def layer_under(self, layer: str, outers: Tuple[str, ...]) -> float:
        """Self time of ``layer`` spent inside any of the ``outers`` layers."""
        return sum(s for (a, b), s in self.under.items() if a == layer and b in outers)

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, handle)


# ---------------------------------------------------------------------------
# the repro layer map
# ---------------------------------------------------------------------------

def _on_run(tracer: Tracer, args: tuple, result: Any) -> None:
    commits = len(result.blocks)
    rejected = sum(p.validation_failures for p in result.passes)
    tracer.count("hybrid.driver.targets", sum(p.targeted for p in result.passes))
    tracer.count("hybrid.driver.commits", commits)
    tracer.count("hybrid.driver.validations", commits + rejected)


def _on_generate(tracer: Tracer, args: tuple, result: Any) -> None:
    c = result.counters
    tracer.count(f"atpg.hitec.{result.status.value}")
    tracer.count("atpg.hitec.verify_rejects", c.verification_rejects)
    tracer.count("atpg.hitec.justify_successes", c.justify_successes)
    tracer.count("atpg.hitec.propagation_solutions", c.propagation_solutions)


def _on_justified(counter: str) -> Callable[[Tracer, tuple, Any], None]:
    def hook(tracer: Tracer, args: tuple, result: Any) -> None:
        if result.success:
            tracer.count(counter)
    return hook


def _on_ga(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("ga.engine.evaluations", result.evaluations)


def _on_lookup(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("knowledge.store.hits")


def _on_record(tracer: Tracer, args: tuple, result: Any) -> None:
    if result:
        tracer.count("knowledge.store.records")


def install_repro(tracer: Tracer) -> None:
    """Wrap the public calls into every layer of ``repro``.

    Imports the modules it patches; :meth:`Tracer.uninstall` undoes it.
    """
    from repro.atpg import context, hitec, podem, scoap, unrolled
    from repro.campaign import journal, merge, runner, warm, worker
    from repro.circuits import resolve
    from repro.faults import collapse
    from repro.ga import engine, justification
    from repro.hybrid import driver
    from repro.knowledge import store
    from repro.simulation import codegen, compiled, fault_sim, logic_sim

    del codegen, context  # imported so their references get patched

    def plain(site, **kw):
        return lambda fn: tracer.wrap(fn, site, **kw)

    # setup
    tracer.patch_everywhere(resolve.resolve_circuit, plain("circuits:resolve"))
    tracer.patch_everywhere(compiled.compile_circuit,
                            plain("simulation.compiled:compile"))
    tracer.patch_everywhere(collapse.collapse_faults,
                            plain("faults.collapse:collapse"))
    tracer.patch_everywhere(scoap.compute_testability,
                            plain("atpg.scoap:compute"))

    # the driver and the engines under it
    tracer.patch(driver.HybridTestGenerator, "run",
                 plain("hybrid.driver:run", on_result=_on_run))
    tracer.patch(hitec.SequentialTestGenerator, "generate",
                 plain("atpg.hitec:generate", on_result=_on_generate,
                       label=lambda args: str(args[1])))
    tracer.patch(podem.PodemEngine, "__init__", plain("atpg.podem:init"))
    tracer.patch(
        podem.PodemEngine, "solutions",
        lambda fn: tracer.wrap_generator(
            fn, "atpg.podem:solutions", yields="atpg.podem.solutions",
            delta=("atpg.podem.backtracks", "backtracks"),
        ),
    )
    tracer.patch(unrolled.UnrolledModel, "__init__", plain("atpg.unrolled:init"))
    for name in ("assign", "unassign", "d_frontier", "x_path_info"):
        tracer.patch(unrolled.UnrolledModel, name, plain(f"atpg.unrolled:{name}"))
    # only the driver's reference: the justifier's own recursion is one call
    tracer.patch(driver, "justify_state",
                 plain("atpg.justify:justify_state",
                       on_result=_on_justified("atpg.justify.justified")))

    # genetic justification
    tracer.patch(justification.GAStateJustifier, "justify",
                 plain("ga.justification:justify",
                       on_result=_on_justified("ga.justification.successes")))
    tracer.patch(justification._SequenceEvaluator, "evaluate",
                 plain("ga.justification:evaluate"))
    tracer.patch(engine.GeneticAlgorithm, "run",
                 plain("ga.engine:run", on_result=_on_ga))

    # simulation
    tracer.patch_everywhere(logic_sim.make_simulator,
                            plain("simulation.logic_sim:make_simulator"))
    for cls in (logic_sim.FrameSimulator, *logic_sim.FrameSimulator.__subclasses__()):
        for name in ("step", "get_state", "set_state"):
            if name in vars(cls):
                tracer.patch(cls, name, plain(f"simulation.logic_sim:{name}"))
    tracer.patch(fault_sim.FaultSimulator, "run", plain("simulation.fault_sim:run"))

    # knowledge
    for name in ("lookup_justified", "lookup_unjustifiable"):
        tracer.patch(store.StateKnowledge, name,
                     plain(f"knowledge.store:{name}", on_result=_on_lookup))
    for name in ("record_justified", "record_unjustifiable"):
        tracer.patch(store.StateKnowledge, name,
                     plain(f"knowledge.store:{name}", on_result=_on_record))

    # campaign orchestration
    tracer.patch(runner.CampaignRunner, "run", plain("campaign.runner:run"))
    tracer.patch(warm.CampaignWarmState, "build", plain("campaign.warm:build"))
    tracer.patch(journal.Journal, "append", plain("campaign.journal:append"))
    tracer.patch_everywhere(merge.merge_campaign, plain("campaign.merge:merge"))
    tracer.patch_everywhere(
        worker.run_item,
        plain("campaign.worker:run_item", label=lambda args: args[1].item_id,
              before=Tracer.adopt_process, after=Tracer.flush_part),
    )


#: Layers whose spans make up set-up (reported from the set-up phase).
SETUP_LAYERS = ("circuits", "simulation.compiled", "faults.collapse", "atpg.scoap")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tracer: Tracer, run_s: float) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, self seconds and share of all traced time.

    Traced time is every process's span self time plus the part of the
    benchmark's own ``run_s`` no span covered (``other.uncovered``).  For a
    driver workload that equals the traced ``run_s``; for a campaign it is
    process-seconds: the parent's wall time plus every worker's busy time.
    """
    calls: Dict[str, int] = {}
    for site, n in tracer.calls.items():
        calls[layer_of(site)] = calls.get(layer_of(site), 0) + n
    self_s = tracer.layer_self_s()
    self_s["other.uncovered"] = max(0.0, run_s - tracer.top_s)
    total = sum(self_s.values())
    return {
        layer: {"calls": calls.get(layer, 0), "self_s": s, "share": _ratio(s, total)}
        for layer, s in sorted(self_s.items())
    }


def repro_layer_metrics(
    setup: Dict[str, float],
    tracer: Tracer,
    run_s: float,
    import_s: float,
    solve_s: float,
    workers: int,
    items_retried: int,
) -> Dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    Args:
        setup: layer self seconds of the set-up phase.
        tracer: run-phase totals, worker parts already absorbed.
        run_s: the traced run's wall time.
        import_s: seconds to ``import repro``.
        solve_s / workers / items_retried: campaign figures (0 otherwise).

    Layers that some workload never enters (the GA outside
    ``gahitec_s386``, the campaign layers outside the campaign) report
    their time as a share of traced time, so no workload prints a constant
    zero-second reading.
    """
    table = layer_table(tracer, run_s)
    calls, k, own = tracer.calls, tracer.counts, tracer.self_s

    def self_of(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def share(layer: str) -> float:
        return table.get(layer, {}).get("share", 0.0)

    total = sum(row["self_s"] for row in table.values())
    lookups = calls.get("knowledge.store:lookup_justified", 0) + calls.get(
        "knowledge.store:lookup_unjustifiable", 0
    )
    justify_calls = calls.get("atpg.justify:justify_state", 0)
    ga_runs = calls.get("ga.justification:justify", 0)
    busy_s = sum(
        e["dur"] / 1e6 for e in tracer.events if e["name"] == "campaign.worker:run_item"
    )
    m: Dict[str, float] = {"repro.import_s": import_s}
    for layer in SETUP_LAYERS:
        m[f"{layer}.self_s"] = setup.get(layer, 0.0)
    m.update({
        "hybrid.driver.self_s": self_of("hybrid.driver"),
        "hybrid.driver.targets": k.get("hybrid.driver.targets", 0),
        "hybrid.driver.validations": k.get("hybrid.driver.validations", 0),
        "hybrid.driver.commit_ratio": _ratio(
            k.get("hybrid.driver.commits", 0), k.get("hybrid.driver.validations", 0)
        ),
        "atpg.hitec.self_s": self_of("atpg.hitec"),
        "atpg.hitec.calls": calls.get("atpg.hitec:generate", 0),
        "atpg.hitec.detected": k.get("atpg.hitec.detected", 0),
        "atpg.hitec.untestable": k.get("atpg.hitec.untestable", 0),
        "atpg.hitec.aborted": k.get("atpg.hitec.aborted", 0),
        "atpg.hitec.verify_rejects": k.get("atpg.hitec.verify_rejects", 0),
        "atpg.hitec.justify_success_ratio": _ratio(
            k.get("atpg.hitec.justify_successes", 0),
            k.get("atpg.hitec.propagation_solutions", 0),
        ),
        "atpg.podem.self_s": self_of("atpg.podem"),
        "atpg.podem.engines": calls.get("atpg.podem:init", 0),
        "atpg.podem.solutions": k.get("atpg.podem.solutions", 0),
        "atpg.podem.backtracks": k.get("atpg.podem.backtracks", 0),
        "atpg.unrolled.self_s": self_of("atpg.unrolled"),
        "atpg.unrolled.build_s": own.get("atpg.unrolled:init", 0.0),
        "atpg.unrolled.builds": calls.get("atpg.unrolled:init", 0),
        "atpg.unrolled.assigns": calls.get("atpg.unrolled:assign", 0),
        "atpg.justify.self_s": self_of("atpg.justify"),
        "atpg.justify.calls": justify_calls,
        "atpg.justify.justified_ratio": _ratio(
            k.get("atpg.justify.justified", 0), justify_calls
        ),
        "ga.justification.share": share("ga.justification"),
        "ga.justification.runs": ga_runs,
        "ga.justification.success_ratio": _ratio(
            k.get("ga.justification.successes", 0), ga_runs
        ),
        "ga.engine.share": share("ga.engine"),
        "ga.engine.evaluations": k.get("ga.engine.evaluations", 0),
        "simulation.logic_sim.self_s": self_of("simulation.logic_sim"),
        "simulation.logic_sim.ga_share": _ratio(
            tracer.layer_under(
                "simulation.logic_sim", ("ga.justification", "ga.engine")
            ),
            total,
        ),
        "simulation.logic_sim.fault_sim_s": tracer.layer_under(
            "simulation.logic_sim", ("simulation.fault_sim",)
        ),
        "simulation.logic_sim.steps": calls.get("simulation.logic_sim:step", 0),
        "simulation.logic_sim.builds": calls.get(
            "simulation.logic_sim:make_simulator", 0
        ),
        "simulation.fault_sim.self_s": self_of("simulation.fault_sim"),
        "simulation.fault_sim.runs": calls.get("simulation.fault_sim:run", 0),
        "knowledge.store.self_s": self_of("knowledge.store"),
        "knowledge.store.lookups": lookups,
        "knowledge.store.hit_ratio": _ratio(k.get("knowledge.store.hits", 0), lookups),
        "knowledge.store.records": k.get("knowledge.store.records", 0),
        "campaign.warm.share": share("campaign.warm"),
        "campaign.journal.share": share("campaign.journal"),
        "campaign.journal.appends": calls.get("campaign.journal:append", 0),
        "campaign.merge.share": share("campaign.merge"),
        "campaign.worker.share": share("campaign.worker"),
        "campaign.worker.items": calls.get("campaign.worker:run_item", 0),
        "campaign.worker.utilization": _ratio(busy_s, workers * solve_s),
        "campaign.runner.share": share("campaign.runner"),
        "campaign.items_retried": items_retried,
        "trace.other_share": share("hybrid.driver") + share("other.uncovered"),
    })
    return m
