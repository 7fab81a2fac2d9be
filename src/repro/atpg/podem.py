"""PODEM branch-and-bound search over the unrolled time-frame model.

One engine serves both deterministic phases of the hybrid test generator:

* ``DETECT`` mode — excite the target fault in frame 0 and drive a D/D̄ to
  a primary output of any frame in the window (HITEC's fault excitation
  and propagation phases);
* ``JUSTIFY`` mode — fault-free, single frame: find primary-input values
  (and, where unavoidable, previous-state requirements) that set the
  flip-flop D inputs to a required next state (one reverse-time step of
  HITEC's deterministic state justification).

Decisions are made only on *leaves* (primary inputs of any frame, pseudo
primary inputs of frame 0), so value conflicts are impossible and
backtracking is a pure undo — classic PODEM.  The search yields successive
solutions on demand, which the sequential engines use to try alternative
propagation paths when a required state proves unjustifiable (the
"backtracks are made in the fault propagation phase" loop of the paper).

The objective, the backtrace and the JUSTIFY goal check read the
circuit's search tables (kept with its implication steps in
:mod:`repro.atpg.unrolled`) and the model's raw value words.  Each
solution's frame-0 state requirement is minimised by release trials,
skipping the trials a backward necessity trace proves would fail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..clock import monotonic
from ..faults.model import Fault
from ..simulation.compiled import CompiledCircuit
from ..simulation.encoding import X
from .constraints import InputConstraints
from .unrolled import (
    _CHAIN,
    _CONTROL,
    _FAULTY,
    _GOOD,
    _PARITY,
    _PI,
    _PPI,
    Leaf,
    UndoRecord,
    UnrolledModel,
)


class SearchStatus(enum.Enum):
    """How a PODEM search ended."""

    SUCCESS = "success"          #: goal reached; solution extracted
    EXHAUSTED = "exhausted"      #: full search space covered, no solution
    LIMIT = "limit"              #: backtrack or time limit hit
    WINDOW = "window"            #: failed, but the frame window was binding


@dataclass
class Limits:
    """Search budget.

    Attributes:
        max_backtracks: decision reversals before giving up.
        deadline: absolute ``clock()`` instant to stop at, or None.
        clock: time source the deadline is measured against; injectable so
            timeout paths can be exercised deterministically in tests and
            campaign workers can enforce budgets against a shared clock.
    """

    max_backtracks: int = 1000
    deadline: Optional[float] = None
    clock: Callable[[], float] = monotonic

    def expired(self) -> bool:
        """True when the wall-clock deadline has passed."""
        return self.deadline is not None and self.clock() >= self.deadline


@dataclass
class Solution:
    """One satisfying assignment found by the search.

    Attributes:
        vectors: per-frame primary-input scalars (0/1/X), frames 0..k.
        required_state: cared frame-0 flip-flop values {net: 0/1}.
        backtracks: cumulative backtracks when this solution was found.
    """

    vectors: List[List[int]]
    required_state: Dict[str, int]
    backtracks: int


class _Decision:
    """One search decision: its leaf and value, whether it is the second
    value tried, and the undo log of its assignment."""

    __slots__ = ("leaf", "value", "flipped", "undo")

    def __init__(
        self, leaf: Leaf, value: int, flipped: bool, undo: List[UndoRecord]
    ):
        self.leaf = leaf
        self.value = value
        self.flipped = flipped
        self.undo = undo


class PodemEngine:
    """Branch-and-bound search over an :class:`UnrolledModel`.

    Args:
        cc: compiled circuit.
        fault: target fault (``None`` in JUSTIFY mode).
        num_frames: window size (DETECT) or 1 (JUSTIFY).
        targets: JUSTIFY-mode goals, as {D-input net name: 0/1}.
    """

    def __init__(
        self,
        cc: CompiledCircuit,
        fault: Optional[Fault] = None,
        num_frames: int = 1,
        targets: Optional[Dict[str, int]] = None,
        constraints: "Optional[InputConstraints]" = None,
        observe_ppo: bool = False,
    ):
        if fault is None and not targets:
            raise ValueError("need a fault (DETECT) or targets (JUSTIFY)")
        if fault is not None and targets:
            raise ValueError("DETECT and JUSTIFY modes are exclusive")
        self.cc = cc
        self.fault = fault
        self.model = UnrolledModel(cc, fault, num_frames)
        self.observe_ppo = observe_ppo
        self._hold_pins: set = set()
        if constraints is not None and not constraints.is_trivial:
            # fixed pins become permanent assignments in every frame;
            # hold pins are remembered so decisions mirror across frames
            for name, value in constraints.fixed.items():
                idx = cc.index[name]
                for frame in range(num_frames):
                    if self.model.good(frame, idx) == X:
                        self.model.assign(frame, idx, value)
            self._hold_pins = {cc.index[name] for name in constraints.hold}
        self._targets: List[Tuple[int, int]] = []
        if targets:
            for name, val in targets.items():
                ff_idx = cc.index[name]
                if ff_idx not in cc.ff_out:
                    raise ValueError(f"{name} is not a flip-flop output")
                d_idx = cc.ff_in[cc.ff_out.index(ff_idx)]
                self._targets.append((d_idx, val))
        self.backtracks = 0
        self.window_hit = False
        #: how the last search ended; LIMIT, which proves nothing, until
        #: the first one does
        self.status = SearchStatus.LIMIT
        self._stack: List[_Decision] = []
        self._yielded = False
        self._exhausted = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solutions(self, limits: Limits) -> Iterator[Solution]:
        """Yield satisfying assignments until the space or budget runs out.

        After exhausting the iterator, inspect :attr:`status` — it
        distinguishes a proven-exhausted space from a budget abort.
        """
        yield from iter(lambda: self.next_solution(limits), None)

    def next_solution(self, limits: Limits) -> Optional[Solution]:
        """The next solution, or ``None`` once the space or budget runs out.

        Each call resumes where the last one stopped, possibly under other
        ``limits``; once the space is exhausted every call returns ``None``.
        """
        if self._yielded:
            self._yielded = False
            # treat the solution as a dead end to enumerate the next one;
            # window pressure recorded on other branches must survive, or
            # the caller would wrongly stop growing the frame window
            self._exhausted = not self._backtrack()
        if self._exhausted or not self._search(limits):
            self._exhausted = self.status is not SearchStatus.LIMIT
            return None
        self._yielded = True
        return self._extract()

    def run(self, limits: Limits) -> Optional[Solution]:
        """Convenience: first solution or ``None``."""
        return next(self.solutions(limits), None)

    # ------------------------------------------------------------------
    # search core
    # ------------------------------------------------------------------
    def _search(self, limits: Limits) -> bool:
        while True:
            if self.backtracks > limits.max_backtracks or limits.expired():
                self.status = SearchStatus.LIMIT
                return False
            if self._goal_reached():
                self.status = SearchStatus.SUCCESS
                return True
            objective = self._objective()
            leaf_assign = None if objective is None else self._backtrace(*objective)
            if leaf_assign is None:
                if not self._backtrack():
                    return False
                continue
            (frame, idx), value = leaf_assign
            undo = self._assign_decision(frame, idx, value)
            self._stack.append(_Decision((frame, idx), value, False, undo))

    def _goal_reached(self) -> bool:
        if self.fault is not None:
            return self.model.detected_at(self.observe_ppo) is not None
        # good slots (bit 0): a target that is X or holds the other value
        r1, r0 = self.model.v1[0], self.model.v0[0]
        for d_idx, val in self._targets:
            if r1[d_idx] & r0[d_idx] & 1 or r1[d_idx] & 1 != val:
                return False
        return True

    def _objective(self) -> Optional[Tuple[int, int, int]]:
        """Next (frame, net index, good value) goal, or None at a dead end."""
        model = self.model
        if self.fault is None:
            r1, r0 = model.v1[0], model.v0[0]
            for d_idx, val in self._targets:
                if r1[d_idx] & r0[d_idx] & 1:
                    return (0, d_idx, val)
                if r1[d_idx] & 1 != val:
                    return None  # requirement provably violated
            return None  # all satisfied (goal check happens first, not here)

        launch = model.launch_frame
        if launch >= model.num_frames:
            # the launch frame lies past the window: growing it is the
            # only way forward, never a proof of untestability
            self.window_hit = True
            return None
        if not model.excitation_possible(launch):
            return None
        site = model.site_idx
        if launch:
            # transition launch: the site must hold the initial value in
            # the frame before the slow edge (stuck == initial value)
            g = model.good(launch - 1, site)
            if g == X:
                return (launch - 1, site, self.fault.stuck)
            if g != self.fault.stuck:
                return None  # site pinned at the final value: no edge
        if not model.fault_excited(launch):
            return (launch, site, 1 - self.fault.stuck)

        frontier = model.d_frontier()
        if not frontier:
            if model.d_reaches_window_edge():
                self.window_hit = True
            return None
        po_reachable, edge_reachable = model.x_path_info(frontier)
        if self.observe_ppo and edge_reachable:
            # a D captured at a last-frame flip-flop is itself observable
            # (it will be shifted out), so the path is not dead
            po_reachable = True
        if not po_reachable:
            if edge_reachable or model.d_reaches_window_edge():
                self.window_hit = True
            return None
        t = model.tables
        co, gate_out, want_of, fanin = t.co, t.gate_out, t.want, t.fanin
        for frame, pos in sorted(
            frontier, key=lambda fp: (fp[0], co[gate_out[fp[1]]])
        ):
            want = want_of[pos]
            # good slots only: a pin fault forces the faulty slot alone,
            # and an input whose good value is X is never D/D̄
            r1, r0 = model.v1[frame], model.v0[frame]
            for src in fanin[gate_out[pos]]:
                if r1[src] & r0[src] & 1:
                    if want is not None:
                        return (frame, src, want)
                    return (frame, src, 0 if t.cc0[src] <= t.cc1[src] else 1)
        # No frontier gate offers a good-X input, yet an X path exists: the
        # remaining unknowns are faulty-slot-only and resolve as more leaves
        # get values.  Fill any free leaf to keep the enumeration complete.
        return self._fill_objective()

    def _fill_objective(self) -> Optional[Tuple[int, int, int]]:
        """Pick an unassigned leaf when no frontier objective is available."""
        model = self.model
        cc0, cc1 = model.tables.cc0, model.tables.cc1
        for frame in range(model.num_frames):
            for idx in self.cc.pi:
                if model.good(frame, idx) == X:
                    return (frame, idx, 0 if cc0[idx] <= cc1[idx] else 1)
        for idx in self.cc.ff_out:
            if model.good(0, idx) == X:
                return (0, idx, 0)
        return None  # everything decided and still no detection: dead end

    def _backtrace(
        self, frame: int, idx: int, value: int
    ) -> Optional[Tuple[Leaf, int]]:
        """Walk an objective back to an unassigned leaf (classic PODEM).

        Reads the circuit's tables and the good slots (bit 0) of the raw
        value words; no injection touches the good slot.  Each step moves
        to a lower level or an earlier frame, so the walk ends.
        """
        t = self.model.tables
        kind, fanin, inv, ctrl, d_input = t.kind, t.fanin, t.inv, t.ctrl, t.d_input
        costs = (t.cc0, t.cc1)
        v1, v0 = self.model.v1, self.model.v0
        while True:
            k = kind[idx]
            if k == _PPI and frame:
                # flip-flop output in frame > 0: cross the frame boundary
                frame -= 1
                idx = d_input[idx]
                continue
            r1, r0 = v1[frame], v0[frame]
            if k == _PI or k == _PPI:
                if r1[idx] & r0[idx] & 1:
                    return (frame, idx), value
                return None  # already decided; objective unreachable
            if k == _CHAIN:
                value ^= inv[idx]
                idx = fanin[idx][0]
            elif k == _PARITY:
                parity = inv[idx]
                chosen = None
                for src in fanin[idx]:
                    if not r1[src] & r0[src] & 1:
                        parity ^= r1[src] & 1
                    elif chosen is None:
                        chosen = src  # other X inputs default to 0 (no parity)
                if chosen is None:
                    return None
                idx = chosen
                value ^= parity
            elif k == _CONTROL:
                c = ctrl[idx]
                # the AND/OR-sense output value required: one controlling
                # input suffices, so pick the easiest; else every input
                # must be non-controlling, so attack the hardest first
                easiest = value ^ inv[idx] == c
                value = c if easiest else 1 - c
                cost = costs[value]
                best = None
                for src in fanin[idx]:
                    if r1[src] & r0[src] & 1 and (
                        best is None
                        or (cost[src] < bound if easiest else cost[src] > bound)
                    ):
                        best, bound = src, cost[src]
                if best is None:
                    return None
                idx = best
            else:
                return None  # cannot control a constant

    def _assign_decision(self, frame: int, idx: int, value: int):
        """Assign a decision leaf; hold pins mirror into every frame."""
        undo = self.model.assign(frame, idx, value)
        if idx in self._hold_pins:
            for other in range(self.model.num_frames):
                if other != frame and self.model.good(other, idx) == X:
                    undo.extend(self.model.assign(other, idx, value))
        return undo

    def _backtrack(self) -> bool:
        """Reverse the most recent untried decision.

        Returns False once every decision has been tried both ways, after
        setting :attr:`status`: WINDOW when the frame window was binding on
        some branch, else EXHAUSTED.
        """
        while self._stack:
            dec = self._stack.pop()
            self.model.unassign(dec.undo)
            self.backtracks += 1
            if not dec.flipped:
                value = 1 - dec.value
                undo = self._assign_decision(dec.leaf[0], dec.leaf[1], value)
                self._stack.append(_Decision(dec.leaf, value, True, undo))
                return True
        self.status = (
            SearchStatus.WINDOW if self.window_hit else SearchStatus.EXHAUSTED
        )
        return False

    # ------------------------------------------------------------------
    def _extract(self) -> Solution:
        model = self.model
        if self.fault is not None:
            hit = model.detected_at(self.observe_ppo)
            vectors = model.extract_vectors(
                hit[0] if hit else model.num_frames - 1
            )
        else:
            vectors = model.extract_vectors(0)
        required = model.required_state()
        if required:
            required = self._minimize_requirement(vectors, required)
        return Solution(
            vectors=vectors,
            required_state=required,
            backtracks=self.backtracks,
        )

    def _minimize_requirement(
        self, vectors: List[List[int]], required: Dict[str, int]
    ) -> Dict[str, int]:
        """Greedily drop frame-0 state requirements the goal does not need.

        PODEM's backtrace decides *some* sufficient assignment; a decided
        pseudo primary input is not necessarily a *necessary* one (an AND
        gate needs only one controlling input).  This runs on the search
        model in place.  The PIs of frames past ``vectors`` are released
        first, so the model holds exactly the solution's leaves: its PI
        vectors and the whole requirement.  Each requirement in turn is
        then released to X, and if the goal — fault detection, or the
        justification targets — still holds, it is dropped for good,
        otherwise the release is undone.  A requirement that
        :meth:`_necessary` proves the goal needs is kept without a trial:
        its release would be undone.  Smaller requirements are strictly
        easier for every justifier, and minimal requirements are what keep
        the reverse-time justification search from missing reachable
        options.  Every release is undone at the end, so the search
        resumes from the solution it yielded.
        """
        model = self.model
        undo: List[UndoRecord] = []
        for frame in range(len(vectors), model.num_frames):
            for idx in self.cc.pi:
                if model.good(frame, idx) != X:
                    undo += model.assign(frame, idx, X)
        necessary = self._necessary()
        kept = dict(required)
        for name in required:
            idx = self.cc.index[name]
            if idx in necessary:
                continue
            release = model.assign(0, idx, X)
            if self._goal_reached():
                del kept[name]
                undo += release
            else:
                model.unassign(release)
        model.unassign(undo)
        return kept

    def _necessary(self) -> Set[int]:
        """Frame-0 flip-flop outputs whose release alone would lose the goal.

        Traced backward over the settled solution
        (:meth:`UnrolledModel.necessary_leaves`).  JUSTIFY loses its goal
        when any target's good slot turns X.  DETECT loses it only when
        every detecting pair loses its good or its faulty slot, so the
        pairs' sets are intersected.  A release only turns known values
        to X, so the answer holds after the other releases too.
        """
        model = self.model
        if self.fault is None:
            return model.necessary_leaves(
                [(0, d_idx, _GOOD) for d_idx, _ in self._targets]
            )
        necessary: Optional[Set[int]] = None
        for frame, idx in model.detections(self.observe_ppo):
            reached = model.necessary_leaves(
                [(frame, idx, _GOOD), (frame, idx, _FAULTY)]
            )
            necessary = reached if necessary is None else necessary & reached
            if not necessary:
                break
        return necessary or set()
