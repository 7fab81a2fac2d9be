"""Deterministic state justification by reverse time processing.

Given a required flip-flop state, search backwards one time frame at a
time: each step runs a fault-free JUSTIFY-mode PODEM that finds primary
input values (plus, when unavoidable, previous-frame state requirements)
making the flip-flop D inputs produce the required values.  The recursion
bottoms out when a step needs **no** state requirement at all — the
assembled vector sequence then justifies the state from the all-unknown
(power-up) state, which is exactly HITEC's notion of justification.

Alternative single-step solutions are enumerated on demand from the PODEM
engine, so the search backtracks across frames like HITEC's reverse time
processing.  Exhaustion is tracked precisely enough to distinguish "proven
unjustifiable within the depth bound" from "gave up on a budget limit",
and precise enough to feed the cross-fault
:class:`~repro.knowledge.StateKnowledge` store: only genuine proofs are
recorded (budget aborts and enumeration truncation never are), and known
facts short-circuit both the top-level query and every sub-requirement the
recursion produces.  The PODEM engine itself never reads the store:
this search skips each single-step solution whose previous-frame
requirement is absolutely unjustifiable, and a skip does not count
against ``solutions_per_step``.

Single-step searches are read through a :class:`JustifySteps` memo, whose
replays give exactly what a fresh engine would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..knowledge import StateKnowledge
from ..simulation.compiled import CompiledCircuit
from .constraints import InputConstraints
from .podem import Limits, PodemEngine, SearchStatus, Solution


class JustifyStatus(enum.Enum):
    """How a reverse-time justification attempt ended."""

    JUSTIFIED = "justified"    #: sequence found (valid from the all-X state)
    EXHAUSTED = "exhausted"    #: proven impossible within the depth bound
    LIMIT = "limit"            #: backtrack/time budget hit
    BOUNDED = "bounded"        #: failed, but the depth bound was binding


@dataclass
class JustifyResult:
    """Outcome of :func:`justify_state`.

    Attributes:
        status: how the search ended.
        vectors: justification sequence (earliest vector first), with X for
            unconstrained inputs; empty when the requirement was empty.
        frames: number of reverse frames used.
    """

    status: JustifyStatus
    vectors: List[List[int]] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return len(self.vectors)

    @property
    def success(self) -> bool:
        return self.status is JustifyStatus.JUSTIFIED


@dataclass
class _Stream:
    """One single-step search: its solutions so far, in order, the engine
    while the stream can still grow, and the final status once it cannot."""

    engine: Optional[PodemEngine]
    found: List[Solution] = field(default_factory=list)
    status: SearchStatus = SearchStatus.SUCCESS


class StepCursor:
    """One caller's walk over a stream from its first solution; :attr:`status`
    is its own (``SUCCESS`` after a solution, else how the stream ended)."""

    def __init__(self, stream: _Stream, limits: Limits):
        self._stream = stream
        self._limits = limits
        self.status = SearchStatus.SUCCESS

    def __iter__(self) -> Iterator[Solution]:
        stream, limits = self._stream, self._limits
        index = 0
        while True:
            engine = stream.engine
            if index == len(stream.found) and engine is not None:
                # only a cursor at the end advances the engine, through
                # ``solutions`` so that tracing sees every search
                sol = next(engine.solutions(limits), None)
                if sol is None:
                    self.status = engine.status
                    exhausted = engine.status is not SearchStatus.LIMIT
                    if exhausted or engine.backtracks > limits.max_backtracks:
                        # final; a deadline cut keeps the engine to resume
                        stream.engine, stream.status = None, engine.status
                    return
                stream.found.append(sol)
            elif limits.expired():
                # a fresh engine checks the deadline at every step
                self.status = SearchStatus.LIMIT
                return
            elif index == len(stream.found):
                self.status = stream.status
                return
            self.status = SearchStatus.SUCCESS
            index += 1
            yield stream.found[index - 1]


class JustifySteps:
    """Memo of single-step JUSTIFY searches, by ordered cube and budget.

    A JUSTIFY engine reads only the circuit (and its SCOAP measures), the
    constraints and its ordered targets (the first unmet one is its next
    objective), so its solutions and their backtrack counts are fixed; a
    budget only cuts the stream where backtracks first exceed it.  So one
    memo may serve any number of faults, passes and campaign items, as
    long as they share one compiled circuit and constraint set: the memo
    binds both on its first query and refuses any other.  A driver keeps
    one per pass; a campaign keeps one per circuit in each process, on
    its warm state.  The solutions are shared by every caller, so they
    must not change, and no two threads may share a memo.

    Attributes:
        built: single-step searches built.
        reuses: queries served by a search built earlier.
    """

    def __init__(self) -> None:
        self._streams: Dict[Tuple[tuple, int], _Stream] = {}
        #: the compiled circuit and constraints of the first query
        self._bound: Optional[
            Tuple[CompiledCircuit, Optional[InputConstraints]]
        ] = None
        self.built = 0
        self.reuses = 0

    def query(
        self, cc: CompiledCircuit, required: Dict[str, int], limits: Limits,
        constraints: "Optional[InputConstraints]",
    ) -> StepCursor:
        """A cursor over the solutions that set ``required`` in one step."""
        if self._bound is None:
            self._bound = (cc, constraints)
        elif cc is not self._bound[0] or constraints != self._bound[1]:
            raise ValueError(
                f"JustifySteps memo serves {self._bound[0].circuit.name} with "
                f"constraints {self._bound[1]}; refused a query for "
                f"{cc.circuit.name} with constraints {constraints}"
            )
        key = (tuple(required.items()), limits.max_backtracks)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(PodemEngine(
                cc, targets=required, constraints=constraints,
            ))
            self.built += 1
        else:
            self.reuses += 1
        return StepCursor(stream, limits)


def justify_state(
    cc: CompiledCircuit,
    required: Dict[str, int],
    max_depth: int,
    limits: Limits,
    solutions_per_step: int = 8,
    constraints: "Optional[InputConstraints]" = None,
    knowledge: "Optional[StateKnowledge]" = None,
    steps: Optional[JustifySteps] = None,
) -> JustifyResult:
    """Find an input sequence that justifies ``required`` from the all-X state.

    Args:
        cc: compiled circuit.
        required: cared flip-flop values {ff net name: 0/1}.
        max_depth: maximum number of reverse time frames to chain.
        limits: shared search budget (backtracks count across all steps).
        solutions_per_step: alternative single-frame solutions to try before
            giving up on a partial requirement.
        constraints: environment-imposed input constraints applied to every
            justification vector.
        knowledge: optional cross-fault store; known-justified states
            short-circuit the search (top level and every sub-requirement),
            known-unjustifiable states prune it (single-step solutions
            only on absolute proofs, which hold at any remaining depth),
            and proofs produced here are recorded back.  The caller is
            responsible for passing a store whose constraint fingerprint
            matches ``constraints``.
        steps: memo of single-step searches to read and extend, shared by
            calls on the same compiled circuit and constraints; one
            private to the call when omitted.
    """
    if steps is None:
        steps = JustifySteps()
    # Three distinct failure bits so knowledge recording stays sound:
    # ``depth`` (the frame bound bit) yields a depth-limited proof,
    # ``truncated`` (solutions_per_step cut the enumeration) and
    # ``limit`` (backtrack/time budget) prove nothing.
    flags = {"limit": False, "depth": False, "truncated": False}

    if knowledge is not None and required:
        known = knowledge.lookup_justified(required)
        if known is not None:
            return JustifyResult(JustifyStatus.JUSTIFIED, known)
        verdict = knowledge.lookup_unjustifiable(required, max_depth)
        if verdict == "exhausted":
            return JustifyResult(JustifyStatus.EXHAUSTED)
        if verdict == "bounded":
            return JustifyResult(JustifyStatus.BOUNDED)

    def dfs(
        req: Dict[str, int], depth: int, seen: FrozenSet[FrozenSet]
    ) -> Optional[List[List[int]]]:
        if not req:
            return []
        if knowledge is not None:
            known = knowledge.lookup_justified(req)
            if known is not None:
                return known
            verdict = knowledge.lookup_unjustifiable(req, depth)
            if verdict == "exhausted":
                return None  # absolute fact: prune without raising a flag
            if verdict == "bounded":
                flags["depth"] = True
                return None
        if depth <= 0:
            flags["depth"] = True
            return None
        key = frozenset(req.items())
        if key in seen:
            return None  # state-requirement loop: cannot make progress
        cursor = steps.query(cc, req, limits, constraints)
        tried = 0
        for sol in cursor:
            if (
                knowledge is not None
                and sol.required_state
                and knowledge.lookup_unjustifiable(sol.required_state)
                == "exhausted"
            ):
                # dead branch: it needs a provably unreachable previous
                # state, so enumerate the next solution instead
                knowledge.stats["podem_pruned"] += 1
                continue
            tried += 1
            prefix = dfs(sol.required_state, depth - 1, seen | {key})
            if prefix is not None:
                if knowledge is not None and sol.required_state:
                    knowledge.record_justified(sol.required_state, prefix)
                return prefix + [list(sol.vectors[0])]
            if tried >= solutions_per_step:
                flags["truncated"] = True
                break
        if cursor.status is SearchStatus.LIMIT:
            flags["limit"] = True
        return None

    vectors = dfs(dict(required), max_depth, frozenset())
    del dfs  # a recursive closure is a reference cycle: free what it holds
    if vectors is not None:
        if knowledge is not None:
            knowledge.record_justified(required, vectors)
        return JustifyResult(JustifyStatus.JUSTIFIED, vectors)
    if flags["limit"]:
        return JustifyResult(JustifyStatus.LIMIT)
    if flags["depth"] or flags["truncated"]:
        # A pure depth-bound failure is a proof valid up to max_depth;
        # enumeration truncation is a budget effect and proves nothing.
        if knowledge is not None and not flags["truncated"]:
            knowledge.record_unjustifiable(required, max_depth)
        return JustifyResult(JustifyStatus.BOUNDED)
    if knowledge is not None:
        knowledge.record_unjustifiable(required, None)
    return JustifyResult(JustifyStatus.EXHAUSTED)
