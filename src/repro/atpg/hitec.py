"""HITEC-style sequential test generation for a single target fault.

The engine runs the paper's Fig. 1 flow: deterministically excite the fault
in time frame 0 and propagate its effect to a primary output over a growing
window of forward time frames (PODEM over the unrolled model), then hand
the required frame-0 state to a pluggable *justifier* — the genetic
justifier in the hybrid's first passes, the deterministic reverse-time
justifier otherwise.  When justification fails, the engine backtracks into
the propagation search and tries the next excitation/propagation solution,
exactly the loop drawn in the paper's Figure 1.

Untestability is reported only when the whole space was exhausted without
any budget or window limit biting, so the claim is sound with respect to
the configured frame bounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..faults.model import Fault, resolve_fault_model
from ..simulation.encoding import X
from .context import AtpgContext
from .justify import JustifyResult, JustifyStatus
from .podem import Limits, PodemEngine, SearchStatus, Solution


class TestGenStatus(enum.Enum):
    """Per-fault outcome of sequential test generation."""

    # not a test class, despite the name pytest pattern-matches when a
    # test module imports it
    __test__ = False

    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


#: A justifier maps a required good-circuit state to a result; the hybrid
#: driver plugs in either the GA or the deterministic reverse-time search.
Justifier = Callable[[Dict[str, int]], JustifyResult]


@dataclass
class FlowCounters:
    """Phase counters for the Figure-1 flow trace.

    Attributes:
        excite_attempts: PODEM searches started (one per window size).
        propagation_solutions: excitation/propagation solutions found.
        justify_calls: justifier invocations (state was non-trivial).
        justify_successes: justifications that produced a sequence.
        propagation_backtracks: solutions abandoned because justification
            failed (the Fig. 1 "backtrack to propagation phase" arrow).
    """

    excite_attempts: int = 0
    propagation_solutions: int = 0
    justify_calls: int = 0
    justify_successes: int = 0
    propagation_backtracks: int = 0
    verification_rejects: int = 0


@dataclass
class TestGenResult:
    """Outcome for one target fault.

    Attributes:
        status: detected / untestable / aborted.
        sequence: full test sequence — justification prefix followed by the
            excitation/propagation vectors (scalars, X allowed).
        justification_frames: length of the justification prefix.
        backtracks: PODEM backtracks spent.
        counters: Figure-1 flow counters.
    """

    status: TestGenStatus
    sequence: List[List[int]] = field(default_factory=list)
    justification_frames: int = 0
    backtracks: int = 0
    counters: FlowCounters = field(default_factory=FlowCounters)


class SequentialTestGenerator:
    """Deterministic excitation/propagation with pluggable justification.

    Args:
        ctx: the shared per-circuit :class:`~repro.atpg.context.AtpgContext`
            (compiled circuit, SCOAP measures, input constraints,
            telemetry and knowledge store).
        max_frames: largest forward propagation window to try.
        max_solutions: propagation alternatives to offer the justifier.

    Every candidate is confirmed by fault simulation before it is reported
    DETECTED.  That rejects the rare optimistic candidate whose frame-0
    faulty state differs from the good state the justifier produced; a
    rejected candidate counts as a justification failure and the search
    continues.

    When the context carries a :class:`~repro.knowledge.StateKnowledge`
    store, known-justified frame-0 states short-circuit the justifier
    (still verified before acceptance) and absolutely-unjustifiable
    states are treated as exhausted without a search — which keeps
    UNTESTABLE claims sound, since only absolute proofs are consulted.
    A stale hit, one that fails verification, is handed to the pass's
    justifier.  In a GA pass the GA then searches; in a deterministic
    pass :func:`~repro.atpg.justify.justify_state` finds the same stale
    sequence in the same store, so the candidate fails verification again
    and counts as a verification reject.
    """

    def __init__(
        self,
        ctx: AtpgContext,
        max_frames: int = 8,
        max_solutions: int = 8,
    ):
        self.ctx = ctx
        self.cc = self.ctx.cc
        self.max_frames = max(1, max_frames)
        self.max_solutions = max(1, max_solutions)

    def generate(
        self,
        fault: Fault,
        justifier: Justifier,
        limits: Limits,
        start_good_state: Optional[List[int]] = None,
        start_fault_state: Optional[List[int]] = None,
    ) -> TestGenResult:
        """Generate a test for ``fault``, or prove it untestable.

        The propagation window grows one frame at a time; within each
        window, successive PODEM solutions are handed to the justifier
        until one of them yields a justifiable state.

        Args:
            fault: the target fault.
            justifier: state-justification callback (GA or deterministic).
            limits: search budget.
            start_good_state / start_fault_state: the states the test will
                actually be applied from (defaults: all-unknown) — used to
                confirm candidates.
        """
        tel = self.ctx.telemetry
        with tel.span("atpg.fault"):
            result = self._generate(
                fault, justifier, limits, start_good_state, start_fault_state
            )
        c = result.counters
        tel.count("atpg.faults_targeted")
        tel.count(f"atpg.status.{result.status.value}")
        tel.count("atpg.backtracks", result.backtracks)
        tel.count("atpg.excite_attempts", c.excite_attempts)
        tel.count("atpg.propagation_solutions", c.propagation_solutions)
        tel.count("atpg.justify_calls", c.justify_calls)
        tel.count("atpg.justify_successes", c.justify_successes)
        tel.count("atpg.propagation_backtracks", c.propagation_backtracks)
        tel.count("atpg.verification_rejects", c.verification_rejects)
        return result

    def _generate(
        self,
        fault: Fault,
        justifier: Justifier,
        limits: Limits,
        start_good_state: Optional[List[int]] = None,
        start_fault_state: Optional[List[int]] = None,
    ) -> TestGenResult:
        self._start_good = start_good_state
        self._start_fault = start_fault_state
        self._fault = fault
        counters = FlowCounters()
        any_limit = False
        prior_solutions = False
        justify_all_exhausted = True
        total_backtracks = 0

        fm = resolve_fault_model(fault.model)
        # Models whose engine view is an approximation (transition) may
        # not claim untestability: the nine-valued window search is only
        # an optimistic filter there, so exhaustion means ABORTED.
        proven_status = (
            TestGenStatus.UNTESTABLE
            if fm.untestable_proofs
            else TestGenStatus.ABORTED
        )
        frames = min(max(1, fm.min_window), self.max_frames)
        while frames <= self.max_frames:
            if limits.expired():
                any_limit = True
                break
            engine = PodemEngine(
                self.cc, fault=fault, num_frames=frames,
                constraints=self.ctx.active_constraints,
            )
            counters.excite_attempts += 1
            solutions_tried = 0
            truncated = False
            solutions = engine.solutions(limits)
            while True:
                with self.ctx.telemetry.span("atpg.propagate"):
                    sol = next(solutions, None)
                if sol is None:
                    break
                counters.propagation_solutions += 1
                solutions_tried += 1
                result, jstatus = self._try_justify(sol, justifier, counters)
                if result is not None and not self._confirm(result):
                    counters.verification_rejects += 1
                    justify_all_exhausted = False
                    result = None
                    jstatus = JustifyStatus.BOUNDED
                if result is not None:
                    result.backtracks = total_backtracks + engine.backtracks
                    result.counters = counters
                    return result
                if jstatus is not JustifyStatus.EXHAUSTED:
                    justify_all_exhausted = False
                if jstatus is JustifyStatus.LIMIT:
                    any_limit = True
                counters.propagation_backtracks += 1
                if solutions_tried >= self.max_solutions:
                    truncated = True
                    break
            total_backtracks += engine.backtracks
            prior_solutions = prior_solutions or solutions_tried > 0
            if truncated:
                break
            if engine.status is SearchStatus.LIMIT:
                any_limit = True
                break
            if engine.status is SearchStatus.WINDOW:
                frames += 1
                continue
            # Search space exhausted within this window with no window
            # pressure: a larger window cannot create new behaviour.
            provable = not any_limit and frames <= self.max_frames
            if solutions_tried == 0 and not prior_solutions and provable:
                return TestGenResult(
                    proven_status,
                    backtracks=total_backtracks,
                    counters=counters,
                )
            if provable and justify_all_exhausted:
                # every achievable required state was proven unjustifiable
                return TestGenResult(
                    proven_status,
                    backtracks=total_backtracks,
                    counters=counters,
                )
            break

        return TestGenResult(
            TestGenStatus.ABORTED, backtracks=total_backtracks, counters=counters
        )

    # ------------------------------------------------------------------
    def _try_justify(
        self, sol: Solution, justifier: Justifier, counters: FlowCounters
    ) -> "tuple[Optional[TestGenResult], JustifyStatus]":
        required = sol.required_state
        if not required:
            return (
                TestGenResult(
                    TestGenStatus.DETECTED,
                    sequence=list(sol.vectors),
                    justification_frames=0,
                ),
                JustifyStatus.JUSTIFIED,
            )
        know = self.ctx.knowledge
        if know is not None:
            # Absolute unjustifiability proofs only: the generator does
            # not know the justifier's frame budget, and a depth-bounded
            # fact must not masquerade as EXHAUSTED here.
            if know.lookup_unjustifiable(required) == "exhausted":
                return None, JustifyStatus.EXHAUSTED
            seq = know.lookup_justified(required)
            if seq is not None:
                candidate = TestGenResult(
                    TestGenStatus.DETECTED,
                    sequence=list(seq) + list(sol.vectors),
                    justification_frames=len(seq),
                )
                if self._confirm(candidate):
                    counters.justify_successes += 1
                    return candidate, JustifyStatus.JUSTIFIED
                # stale entry: a GA justifier searches; justify_state
                # returns the same sequence, which fails confirmation again
                know.stats["stale_hits"] += 1
        counters.justify_calls += 1
        with self.ctx.telemetry.span("atpg.justify"):
            jres = justifier(required)
        if jres.success:
            counters.justify_successes += 1
            return (
                TestGenResult(
                    TestGenStatus.DETECTED,
                    sequence=list(jres.vectors) + list(sol.vectors),
                    justification_frames=len(jres.vectors),
                ),
                jres.status,
            )
        return None, jres.status

    # ------------------------------------------------------------------
    def _fill(self, sequence: List[List[int]]) -> List[List[int]]:
        """Resolve don't-cares deterministically (constraints-aware)."""
        filled = [[0 if v == X else v for v in vec] for vec in sequence]
        constraints = self.ctx.active_constraints
        if constraints is not None:
            constraints.apply_to_vectors(self.cc.circuit, filled)
        return filled

    def _confirm(self, result: TestGenResult) -> bool:
        """Fault-simulate the candidate from the actual start states."""
        filled = self._fill(result.sequence)
        states = (
            {self._fault: self._start_fault}
            if self._start_fault is not None
            else None
        )
        outcome = self.ctx.fault_simulator().run(
            filled,
            [self._fault],
            good_state=self._start_good,
            fault_states=states,
        )
        if self._fault in outcome.detected:
            result.sequence = filled
            return True
        return False
