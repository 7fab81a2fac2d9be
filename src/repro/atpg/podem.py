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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..circuit.gates import CONTROLLING_VALUE, INVERSION, GateType
from ..clock import monotonic
from ..faults.model import Fault
from ..knowledge import StateKnowledge
from ..simulation.compiled import CompiledCircuit
from ..simulation.encoding import X
from .constraints import InputConstraints
from .scoap import Testability, compute_testability
from .unrolled import Leaf, UndoRecord, UnrolledModel


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
        detect_frame: frame whose PO shows the fault effect (DETECT mode).
        backtracks: cumulative backtracks when this solution was found.
    """

    vectors: List[List[int]]
    required_state: Dict[str, int]
    detect_frame: int
    backtracks: int


@dataclass
class _Decision:
    leaf: Leaf
    value: int
    flipped: bool
    undo: List[UndoRecord]


class PodemEngine:
    """Branch-and-bound search over an :class:`UnrolledModel`.

    Args:
        cc: compiled circuit.
        fault: target fault (``None`` in JUSTIFY mode).
        num_frames: window size (DETECT) or 1 (JUSTIFY).
        targets: JUSTIFY-mode goals, as {D-input net name: 0/1}.
        testability: SCOAP measures (computed on demand if omitted).
        knowledge: optional cross-fault store; in JUSTIFY mode, solutions
            whose previous-frame state requirement is *absolutely* proven
            unjustifiable are pruned instead of yielded.  Only absolute
            proofs prune (the engine cannot know the caller's remaining
            frame budget), so pruning never weakens an EXHAUSTED claim.
    """

    def __init__(
        self,
        cc: CompiledCircuit,
        fault: Optional[Fault] = None,
        num_frames: int = 1,
        targets: Optional[Dict[str, int]] = None,
        testability: Optional[Testability] = None,
        constraints: "Optional[InputConstraints]" = None,
        observe_ppo: bool = False,
        knowledge: "Optional[StateKnowledge]" = None,
    ):
        if fault is None and not targets:
            raise ValueError("need a fault (DETECT) or targets (JUSTIFY)")
        if fault is not None and targets:
            raise ValueError("DETECT and JUSTIFY modes are exclusive")
        self.cc = cc
        self.fault = fault
        self.model = UnrolledModel(cc, fault, num_frames)
        self.meas = testability or compute_testability(cc)
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
        self.knowledge = knowledge if fault is None else None
        self.backtracks = 0
        self.window_hit = False
        self._stack: List[_Decision] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solutions(self, limits: Limits) -> Iterator[Solution]:
        """Yield satisfying assignments until the space or budget runs out.

        After exhausting the iterator, inspect :attr:`status` — it
        distinguishes a proven-exhausted space from a budget abort.
        """
        while self._search(limits):
            sol = self._extract()
            if (
                self.knowledge is not None
                and sol.required_state
                and self.knowledge.lookup_unjustifiable(sol.required_state)
                == "exhausted"
            ):
                # dead branch: this assignment needs a provably unreachable
                # previous-frame state, so enumerate the next one instead
                self.knowledge.stats["podem_pruned"] += 1
            else:
                yield sol
            # treat the solution as a dead end to enumerate the next one;
            # window pressure recorded on other branches must survive, or
            # the caller would wrongly stop growing the frame window
            if not self._backtrack():
                return

    def run(self, limits: Limits) -> Optional[Solution]:
        """Convenience: first solution or ``None``."""
        return next(self.solutions(limits), None)

    status: SearchStatus = SearchStatus.EXHAUSTED

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
        return all(self.model.good(0, d) == v for d, v in self._targets)

    def _objective(self) -> Optional[Tuple[int, int, int]]:
        """Next (frame, net index, good value) goal, or None at a dead end."""
        model = self.model
        if self.fault is None:
            for d_idx, val in self._targets:
                g = model.good(0, d_idx)
                if g == X:
                    return (0, d_idx, val)
                if g != val:
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
        for frame, pos in sorted(
            frontier,
            key=lambda fp: (fp[0], self.meas.co[self.cc.gates[fp[1]].out]),
        ):
            gate = self.cc.gates[pos]
            ctrl = CONTROLLING_VALUE.get(gate.gtype)
            want = (1 - ctrl) if ctrl is not None else None
            # good slots only: a pin fault forces the faulty slot alone,
            # and an input whose good value is X is never D/D̄
            for src in gate.fanin:
                if model.good(frame, src) == X:
                    if want is not None:
                        return (frame, src, want)
                    return (
                        frame, src,
                        0 if self.meas.cc0[src] <= self.meas.cc1[src] else 1,
                    )
        # No frontier gate offers a good-X input, yet an X path exists: the
        # remaining unknowns are faulty-slot-only and resolve as more leaves
        # get values.  Fill any free leaf to keep the enumeration complete.
        return self._fill_objective()

    def _fill_objective(self) -> Optional[Tuple[int, int, int]]:
        """Pick an unassigned leaf when no frontier objective is available."""
        model = self.model
        for frame in range(model.num_frames):
            for idx in self.cc.pi:
                if model.good(frame, idx) == X:
                    return (
                        frame, idx,
                        0 if self.meas.cc0[idx] <= self.meas.cc1[idx] else 1,
                    )
        for idx in self.cc.ff_out:
            if model.good(0, idx) == X:
                return (0, idx, 0)
        return None  # everything decided and still no detection: dead end

    def _backtrace(
        self, frame: int, idx: int, value: int
    ) -> Optional[Tuple[Leaf, int]]:
        """Walk an objective back to an unassigned leaf (classic PODEM)."""
        cc = self.cc
        model = self.model
        guard = 0
        while True:
            guard += 1
            if guard > 10 * cc.num_nets * model.num_frames:
                return None  # defensive: malformed circuit
            if model.is_leaf(frame, idx):
                if model.good(frame, idx) != X:
                    return None  # already decided; objective unreachable
                return (frame, idx), value
            gate_pos = cc.gate_of[idx]
            if gate_pos is None:
                # flip-flop output in frame > 0: cross the frame boundary
                ff_pos = cc.ff_out.index(idx)
                if frame == 0:
                    return None  # unreachable: frame-0 PPIs are leaves
                frame -= 1
                idx = cc.ff_in[ff_pos]
                continue
            gate = cc.gates[gate_pos]
            t = gate.gtype
            inv = INVERSION[t]
            if t in (GateType.CONST0, GateType.CONST1):
                return None  # cannot control a constant
            if t in (GateType.BUF, GateType.NOT, GateType.DFF):
                idx = gate.fanin[0]
                value ^= inv
                continue
            # inputs are read in the good slot, which no injection touches
            if t in (GateType.XOR, GateType.XNOR):
                parity = inv
                chosen = None
                for src in gate.fanin:
                    g = model.good(frame, src)
                    if g != X:
                        parity ^= g
                    elif chosen is None:
                        chosen = src  # other X inputs default to 0 (no parity)
                if chosen is None:
                    return None
                idx = chosen
                value = value ^ parity
                continue
            ctrl = CONTROLLING_VALUE[t]
            need = value ^ inv  # the AND/OR-sense output value required
            xs = [src for src in gate.fanin if model.good(frame, src) == X]
            if not xs:
                return None
            if need == ctrl:
                # one controlling input suffices: pick the easiest
                idx = min(xs, key=lambda src: self.meas.cc(src, ctrl))
                value = ctrl
            else:
                # all inputs must be non-controlling: attack the hardest first
                idx = max(xs, key=lambda src: self.meas.cc(src, 1 - ctrl))
                value = 1 - ctrl

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
            detect_frame = hit[0] if hit else model.num_frames - 1
            vectors = model.extract_vectors(detect_frame)
        else:
            detect_frame = 0
            vectors = model.extract_vectors(0)
        required = model.required_state()
        if required:
            required = self._minimize_requirement(vectors, required)
        return Solution(
            vectors=vectors,
            required_state=required,
            detect_frame=detect_frame,
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
        otherwise the release is undone.  Smaller requirements are
        strictly easier for every justifier, and minimal requirements are
        what keep the reverse-time justification search from missing
        reachable options.  Every release is undone at the end, so the
        search resumes from the solution it yielded.
        """
        model = self.model
        undo: List[UndoRecord] = []
        for frame in range(len(vectors), model.num_frames):
            for idx in self.cc.pi:
                if model.good(frame, idx) != X:
                    undo += model.assign(frame, idx, X)
        kept = dict(required)
        for name in required:
            release = model.assign(0, self.cc.index[name], X)
            if self._goal_reached():
                del kept[name]
                undo += release
            else:
                model.unassign(release)
        model.unassign(undo)
        return kept
