"""Multi-pass test-generation drivers: GA-HITEC and the HITEC baseline.

:class:`HybridTestGenerator` implements the paper's overall flow: make
passes through the (collapsed) fault list per a schedule from
:mod:`repro.hybrid.passes`; in each pass, target every remaining fault
individually with deterministic excitation/propagation and the pass's
justifier; validate each candidate sequence by fault simulation before
accepting it; after every accepted test, fault-simulate the remaining
faults over the new vectors to credit incidental detections (faults are
dropped once detected, as in the paper).

The GA justifier starts from the *current* good-circuit state — the state
reached after all previously accepted tests — which is one of the paper's
key advantages over HITEC's always-from-unknown justification.
:func:`hitec_baseline` builds the same driver with deterministic-only
justification.

Every run is measured: the driver threads a
:class:`~repro.telemetry.metrics.Recorder` through the sequential engine,
the GA justifier, and the fault simulator, and assembles a
:class:`~repro.telemetry.report.RunReport` (per-pass statistics, per-fault
dispositions, kernel-compile and simulation volume, wall/CPU time) on the
returned :class:`~repro.hybrid.results.RunResult`.  With the default
no-op recorder only the report's own bookkeeping runs — a few dictionary
operations per fault.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..atpg.constraints import InputConstraints, UNCONSTRAINED
from ..atpg.context import AtpgContext
from ..atpg.hitec import SequentialTestGenerator, TestGenStatus
from ..atpg.justify import JustifyResult, JustifySteps, justify_state
from ..atpg.podem import Limits
from ..atpg.scoap import cached_testability
from ..circuit.netlist import Circuit
from ..clock import monotonic
from ..faults.model import DEFAULT_FAULT_MODEL, Fault
from ..ga.justification import GAJustifyParams, GAStateJustifier
from ..knowledge import KnowledgeError, StateKnowledge
from ..policy.features import fault_features
from ..policy.model import FaultPolicy
from ..policy.schedule import PolicyPlan, build_plan
from ..simulation import codegen, kernel_cache
from ..simulation.fault_sim import GradedTestSet
from ..telemetry import (
    FaultRecord,
    PassReport,
    Recorder,
    RunReport,
    TelemetryRecorder,
)
from .passes import GA, PassConfig
from .results import PassStats, RunResult


class HybridTestGenerator:
    """Multi-pass sequential ATPG driver (GA-HITEC when given GA passes).

    Args:
        circuit: the circuit under test.
        seed: seed of the GA's random source, making runs reproducible.
        width: simulator word width (faults per fault-sim pass, GA slots).
        max_frames: forward propagation window bound; defaults to
            ``2 * sequential_depth + 2`` clamped to [4, 16].
        max_solutions: propagation alternatives offered per fault.
        faults: explicit target fault list (defaults to the collapsed
            universe).
        generator_name: label recorded in results.
        use_current_state: when True (the paper's GA-HITEC behaviour), the
            GA justifier starts from the good-circuit state reached after
            all previously accepted tests; when False it starts from the
            all-unknown state like HITEC's justification (ablation knob).
        constraints: environment-imposed input constraints every generated
            vector must satisfy (Section VI of the paper); enforced during
            search and when the sequential engine fills don't-cares.
        telemetry: metrics/trace recorder shared by every component the
            driver builds; defaults to the shared no-op recorder.
        clock: wall-clock source for every deadline and duration the
            driver measures (defaults to :data:`repro.clock.monotonic`).
            Injectable so timeout/retry paths are deterministic under test
            and campaign workers can enforce budgets against a fake clock.
        knowledge: cross-fault state-knowledge reuse.  ``True`` (default)
            creates a fresh per-run store; a preloaded
            :class:`~repro.knowledge.StateKnowledge` (e.g. from a campaign
            sidecar) is used directly after a circuit/fingerprint check;
            ``False`` disables reuse entirely.
        policy: learned fault-scheduling policy (``repro.policy``).
            Either a trained :class:`~repro.policy.model.FaultPolicy`
            (a per-circuit plan is built when :meth:`run` knows the
            schedule) or a prebuilt
            :class:`~repro.policy.schedule.PolicyPlan` (e.g. from a
            campaign's warm state).  Passes before a fault's predicted
            start pass skip it; the schedule's final pass targets
            everything remaining.  A skipped targeting can still lose a
            detection (docs/POLICY.md).  ``None`` (default) runs the
            static schedule.
        fault_model: registered fault-model name the run targets
            (``"stuck_at"`` default, ``"transition"``).  Defines the
            default fault universe, the engines' detection semantics,
            and the knowledge environment fingerprint.
        justify_steps: memo of single-step JUSTIFY searches that every
            pass reads and extends; a campaign hands each item its
            circuit's memo.  ``None`` (default) gives each pass a memo of
            its own, dropped when the pass returns.
    """

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 0,
        width: int = 64,
        max_frames: Optional[int] = None,
        max_solutions: int = 8,
        faults: Optional[Sequence[Fault]] = None,
        generator_name: str = "GA-HITEC",
        use_current_state: bool = True,
        constraints: Optional[InputConstraints] = None,
        telemetry: Optional[Recorder] = None,
        clock: Optional[Callable[[], float]] = None,
        knowledge: "bool | StateKnowledge" = True,
        policy: "FaultPolicy | PolicyPlan | None" = None,
        fault_model: str = DEFAULT_FAULT_MODEL,
        justify_steps: Optional[JustifySteps] = None,
    ):
        self.circuit = circuit
        self.seed = seed
        self.rng = random.Random(seed)
        self.width = width
        self.clock = clock or monotonic
        if max_frames is None:
            max_frames = min(16, max(4, 2 * circuit.sequential_depth + 2))
        self.max_frames = max_frames
        self.constraints = constraints or UNCONSTRAINED
        self.constraints.validate(circuit)
        # One shared context owns the compiled circuit, simulator handles,
        # and the knowledge store for every engine this driver builds.
        self.ctx = AtpgContext(
            circuit,
            constraints=self.constraints,
            telemetry=telemetry,
            fault_model=fault_model,
        )
        self.cc = self.ctx.cc
        self.telemetry = self.ctx.telemetry
        cached_testability(self.cc)  # set-up work, not the first search's
        if isinstance(knowledge, StateKnowledge):
            if knowledge.circuit and knowledge.circuit != circuit.name:
                raise KnowledgeError(
                    f"knowledge store is for {knowledge.circuit!r}, "
                    f"not {circuit.name!r}"
                )
            if knowledge.fingerprint != self.ctx.knowledge_fingerprint:
                raise KnowledgeError(
                    "knowledge store was proven under constraint "
                    f"environment {knowledge.fingerprint!r}, not "
                    f"{self.ctx.knowledge_fingerprint!r}"
                )
            self.ctx.knowledge = knowledge
        elif knowledge:
            self.ctx.make_knowledge()
        self.knowledge = self.ctx.knowledge
        self.seqgen = SequentialTestGenerator(
            self.ctx,
            max_frames=max_frames,
            max_solutions=max_solutions,
        )
        self.fault_sim = self.ctx.fault_simulator(width=width)
        self.ga_justifier = GAStateJustifier(self.ctx, rng=self.rng)
        self.generator_name = generator_name
        self.use_current_state = use_current_state
        self.justify_steps = justify_steps

        self.policy = policy
        self._plan: Optional[PolicyPlan] = None
        self.all_faults: List[Fault] = (
            list(faults) if faults is not None else self.ctx.faults
        )
        # mutable run state
        self.tests = GradedTestSet(self.fault_sim, self.all_faults)
        self.untestable: List[Fault] = []
        self._records: Dict[Fault, FaultRecord] = {}
        self._deadline: Optional[float] = None
        #: set when :meth:`run` stopped early because its deadline passed
        self.deadline_expired: bool = False

    # ------------------------------------------------------------------
    def run(
        self,
        schedule: Sequence[PassConfig],
        deadline: Optional[float] = None,
    ) -> RunResult:
        """Execute the whole schedule; return statistics and a run report.

        Args:
            schedule: pass configurations to execute in order.
            deadline: absolute ``clock()`` instant after which no further
                fault is targeted — the run stops between faults, keeps
                everything committed so far, and flags the result with
                ``deadline_expired``.  Campaign workers use this to bound
                each work item's wall-clock cost.
        """
        tel = self.telemetry
        result = RunResult(
            circuit_name=self.circuit.name,
            generator=self.generator_name,
            total_faults=len(self.all_faults),
        )
        self._deadline = deadline
        self.deadline_expired = False
        knowledge_stats0 = (
            self.knowledge.snapshot_stats()
            if self.knowledge is not None
            else {}
        )
        self.tests = GradedTestSet(self.fault_sim, self.all_faults)
        self.untestable = []
        self._records = {}
        self._plan = self._resolve_plan(schedule)

        report = RunReport(
            circuit=self.circuit.name,
            generator=self.generator_name,
            total_faults=len(self.all_faults),
            seed=self.seed,
            backend=self.fault_sim.backend,
            fault_model=self.ctx.fault_model,
            width=self.width,
        )
        # this thread's kernel compilations, kernel-cache activity and CPU
        # time: the service runs concurrent jobs in threads of one process
        compiles0 = dict(codegen.compile_stats())
        cache0 = kernel_cache.stats_snapshot()
        wall0 = self.clock()
        cpu0 = time.thread_time()
        for cfg in schedule:
            pass_start = self.clock()
            untestable_before = len(self.untestable)
            with tel.span(
                "hybrid.pass", number=cfg.number, approach=cfg.justification
            ):
                stats = self.run_pass(cfg)
            stats.detected = len(self.tests.detected)
            stats.vectors = len(self.tests.vectors)
            stats.untestable = len(self.untestable)
            stats.time_s = self.clock() - wall0
            result.passes.append(stats)
            report.passes.append(
                PassReport(
                    number=cfg.number,
                    approach=cfg.justification,
                    targeted=stats.targeted,
                    detected_new=stats.detected_new,
                    untestable_new=len(self.untestable) - untestable_before,
                    aborted=stats.aborted,
                    ga_justified=stats.ga_justified,
                    det_justified=stats.det_justified,
                    validation_failures=stats.validation_failures,
                    time_s=self.clock() - pass_start,
                )
            )
            if self.deadline_expired:
                break

        report.wall_time_s = self.clock() - wall0
        report.cpu_time_s = time.thread_time() - cpu0
        compiles = codegen.compile_stats()
        report.kernel_compiles = int(compiles["kernels"] - compiles0["kernels"])
        report.kernel_compile_s = compiles["seconds"] - compiles0["seconds"]
        for name, before in cache0.items():
            delta = kernel_cache.cache_stats()[name] - before
            if delta:
                tel.count(f"sim.kernel_cache.{name}", delta)

        result.test_set = self.tests.vectors
        result.detected = self.tests.detected
        result.untestable = list(self.untestable)
        result.blocks = self.tests.blocks
        result.deadline_expired = self.deadline_expired
        if self.knowledge is not None:
            result.knowledge_stats = self.knowledge.snapshot_stats()
            for name, value in result.knowledge_stats.items():
                delta = value - knowledge_stats0.get(name, 0)
                if delta:
                    tel.count(f"knowledge.{name}", delta)
            tel.observe("knowledge.entries", float(len(self.knowledge)))
        self._finalize_report(report)
        result.report = report
        return result

    def _resolve_plan(self, schedule: Sequence[PassConfig]) -> Optional[PolicyPlan]:
        """The per-circuit plan for this run, or ``None`` (static)."""
        if self.policy is None or not schedule:
            return None
        if isinstance(self.policy, PolicyPlan):
            plan = self.policy
            return plan if plan.circuit == self.circuit.name else None
        return build_plan(
            self.policy, self.cc, self.all_faults, final_pass=schedule[-1].number
        )

    def _finalize_report(self, report: RunReport) -> None:
        """Fill the campaign totals and per-fault dispositions."""
        for fault in self.all_faults:
            record = self._record_for(fault)
            record.features = fault_features(self.cc, fault)
            report.faults.append(record)
        report.detected = len(self.tests.detected)
        report.untestable = len(self.untestable)
        report.vectors = len(self.tests.vectors)
        report.fault_coverage = (
            len(self.tests.detected) / report.total_faults
            if report.total_faults
            else 0.0
        )
        if isinstance(self.telemetry, TelemetryRecorder):
            report.metrics = self.telemetry.registry.to_dict()

    # ------------------------------------------------------------------
    def _knowledge_hit_total(self) -> int:
        """Sum of the store's hit-style counters (per-fault deltas)."""
        stats = self.knowledge.stats if self.knowledge is not None else {}
        return (
            stats.get("justified_hits", 0)
            + stats.get("unjustifiable_hits", 0)
            + stats.get("podem_pruned", 0)
        )

    def _record_for(self, fault: Fault) -> FaultRecord:
        record = self._records.get(fault)
        if record is None:
            record = self._records[fault] = FaultRecord(
                fault=str(fault), status="aborted"
            )
        return record

    def run_pass(self, cfg: PassConfig) -> PassStats:
        """Make one pass through the remaining fault list."""
        stats = PassStats(number=cfg.number, approach=cfg.justification)
        # the memo's key holds the budget, so a campaign's memo serves
        # every pass of every item; a driver of its own keeps one per
        # pass, since both schedules grow the budget from pass to pass
        # and an older pass's searches never come back
        steps = self.justify_steps
        if steps is None:
            steps = JustifySteps()
        built0, reuses0 = steps.built, steps.reuses
        detected = self.tests.detected
        before = len(detected)
        for fault in list(self.tests.remaining):
            if fault in detected:
                continue  # dropped incidentally earlier in this pass
            if self._plan is not None and not self._plan.eligible(fault, cfg.number):
                # the policy predicts a later pass resolves the fault;
                # that pass (at the latest the final one) targets it
                self.telemetry.count("atpg.policy.pass_skips")
                continue
            if self._deadline is not None and self.clock() >= self._deadline:
                self.deadline_expired = True
                break
            stats.targeted += 1
            self._target_fault(fault, cfg, stats, steps)
        built, reuses = steps.built - built0, steps.reuses - reuses0
        if built or reuses:
            self.telemetry.count("atpg.justify_steps", built)
            self.telemetry.count("atpg.justify_step_reuses", reuses)
        stats.detected_new = len(detected) - before
        for fault in detected:
            record = self._record_for(fault)
            if record.status != "detected":
                record.status = "detected"
                record.incidental = True
                record.pass_number = cfg.number
        return stats

    def _target_fault(
        self, fault: Fault, cfg: PassConfig, stats: PassStats, steps: JustifySteps
    ) -> None:
        tel = self.telemetry
        record = self._record_for(fault)
        record.targeted += 1
        record.pass_number = cfg.number
        ga_generations0 = self.ga_justifier.generations
        knowledge0 = self._knowledge_hit_total() if self.knowledge is not None else 0
        started = self.clock()

        deadline = (
            self.clock() + cfg.time_limit
            if cfg.time_limit is not None
            else None
        )
        if self._deadline is not None:
            deadline = (
                self._deadline if deadline is None else min(deadline, self._deadline)
            )
        limits = Limits(
            max_backtracks=cfg.max_backtracks, deadline=deadline, clock=self.clock
        )
        justifier = self._make_justifier(fault, cfg, limits, steps)
        result = self.seqgen.generate(
            fault,
            justifier,
            limits,
            start_good_state=self.tests.good_state,
            start_fault_state=self.tests.fault_states.get(fault),
        )
        record.backtracks += result.backtracks
        record.ga_generations += self.ga_justifier.generations - ga_generations0
        if self.knowledge is not None:
            record.knowledge_hits += self._knowledge_hit_total() - knowledge0

        if result.status is TestGenStatus.DETECTED:
            # confirmed sequences arrive 0-filled, constraints applied;
            # the test set keeps one only if it detects its target
            tel.count("hybrid.validations")
            with tel.span("hybrid.validate"):
                kept = self.tests.apply(result.sequence, keep=lambda d: fault in d)
            if kept:
                tel.count("hybrid.commits")
                record.status = "detected"
                if result.justification_frames:
                    record.justification = (
                        "ga" if cfg.justification == GA else "deterministic"
                    )
                if cfg.justification == GA and result.justification_frames:
                    stats.ga_justified += 1
                elif result.justification_frames:
                    stats.det_justified += 1
            else:
                stats.aborted += 1
                stats.validation_failures += 1
        elif result.status is TestGenStatus.UNTESTABLE:
            record.status = "untestable"
            self.untestable.append(fault)
            self.tests.remaining.remove(fault)
        else:
            stats.aborted += 1
        record.time_s += self.clock() - started

    # ------------------------------------------------------------------
    def _make_justifier(
        self, fault: Fault, cfg: PassConfig, limits: Limits, steps: JustifySteps
    ) -> Callable[[Dict[str, int]], JustifyResult]:
        if cfg.justification == GA:
            params = GAJustifyParams(
                population_size=cfg.population_size,
                generations=cfg.generations,
                seq_len=cfg.seq_len,
                word_width=self.width,
            )

            def ga_justify(required: Dict[str, int]) -> JustifyResult:
                start = self.tests.good_state if self.use_current_state else None
                with self.telemetry.span("justify.ga"):
                    return self.ga_justifier.justify(
                        required,
                        params,
                        fault=fault,
                        current_good_state=start,
                    )

            return ga_justify

        def det_justify(required: Dict[str, int]) -> JustifyResult:
            with self.telemetry.span("justify.det"):
                return justify_state(
                    self.cc,
                    required,
                    max_depth=cfg.justify_depth,
                    limits=limits,
                    constraints=(
                        None
                        if self.constraints.is_trivial
                        else self.constraints
                    ),
                    knowledge=self.knowledge,
                    steps=steps,
                )

        return det_justify


def gahitec(circuit: Circuit, **kwargs) -> HybridTestGenerator:
    """Construct a GA-HITEC driver (GA passes enabled via the schedule)."""
    return HybridTestGenerator(circuit, generator_name="GA-HITEC", **kwargs)


def hitec_baseline(circuit: Circuit, **kwargs) -> HybridTestGenerator:
    """Construct the HITEC baseline driver.

    The baseline differs from GA-HITEC only through its schedule
    (:func:`repro.hybrid.passes.hitec_schedule`): deterministic
    justification in every pass, always from the all-unknown state.
    """
    return HybridTestGenerator(circuit, generator_name="HITEC", **kwargs)
