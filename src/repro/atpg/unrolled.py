"""Iterative time-frame expansion model for sequential ATPG.

:class:`UnrolledModel` materialises ``num_frames`` copies of the circuit's
combinational logic.  Frame ``f``'s flip-flop outputs equal frame ``f-1``'s
D-input values; frame 0's flip-flop outputs are free *pseudo primary
inputs* (the state the justifier must later produce).  Every net in every
frame carries a packed two-slot (good, faulty) nine-valued word, with the
target fault injected into the faulty slot of **every** frame, PROOFS-style.

The model supports the exact operations PODEM needs:

* assign a value to a leaf (a PI of any frame, or a frame-0 PPI),
* event-driven forward propagation with an undo log per decision,
* D-frontier / fault-excitation / PO-detection / X-path queries.

Propagation runs one specialised *step* per gate, built once per circuit
from source templates keyed by gate shape, so compiles grow with the
shapes a circuit uses, not its size.  A step evaluates its gate inline
and, only if the output word changes, logs the old word, writes the new
one and schedules the readers.  The fault-site gate is a step too: from
the launch frame on, a faulty model runs one from a template also keyed
by its injection (the forced input pin or the output, and the stuck
value).  Steps emit their gate logic and stuck forces through the same
functions as the simulation kernels of :mod:`repro.simulation.codegen`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..faults.model import DEFAULT_FAULT_MODEL, Fault, resolve_fault_model
from ..simulation.codegen import force_lines, gate_lines
from ..simulation.compiled import CompiledCircuit
from ..simulation.encoding import PackedValue, X
from ..simulation.fault_sim import injection_for
from ..simulation.logic_sim import apply_stuck
from .values import MASK2, XX, good_of, is_d, make9

#: A leaf the search may decide on: (frame, net index).
Leaf = Tuple[int, int]

#: One undo record: (frame, net index, old p1, old p0).
UndoRecord = Tuple[int, int, int, int]

#: The faulty slot's bit of a two-slot word: where the fault is forced.
_FAULTY = 0b10

#: Name of the per-CompiledCircuit attribute caching fault-free baselines.
_BASELINE_ATTR = "_unrolled_baselines"

#: Per-frame value rows (``v1``, ``v0``) of a whole window.
Rows = Tuple[List[List[int]], List[List[int]]]


def _init_sweep(cc: CompiledCircuit, num_frames: int) -> Rows:
    """Fault-free evaluation of the all-X window, frame by frame.

    Every gate's step runs once per frame, in level order; the readers it
    schedules and the undo records it logs are dropped.
    """
    steps = _implication(cc).steps
    pending: List[Set[int]] = [set() for _ in range(cc.num_levels + 1)]
    undo: List[UndoRecord] = []
    v1 = [[XX[0]] * cc.num_nets for _ in range(num_frames)]
    v0 = [[XX[1]] * cc.num_nets for _ in range(num_frames)]
    for frame in range(num_frames):
        r1, r0 = v1[frame], v0[frame]
        if frame:
            for out_idx, in_idx in zip(cc.ff_out, cc.ff_in):
                r1[out_idx] = v1[frame - 1][in_idx]
                r0[out_idx] = v0[frame - 1][in_idx]
        for step in steps:
            step(r1, r0, pending, undo, frame)
    return v1, v0


def _baseline(cc: CompiledCircuit, num_frames: int) -> Rows:
    """The :func:`_init_sweep` rows of ``cc``, cached on it; callers copy."""
    cache: Dict[int, Rows] = vars(cc).setdefault(_BASELINE_ATTR, {})
    if num_frames not in cache:
        cache[num_frames] = _init_sweep(cc, num_frames)
    return cache[num_frames]


#: One gate's implication step over a frame: ``step(v1, v0, pending,
#: undo, frame)`` with that frame's value rows and level buckets.
Step = Callable[[List[int], List[int], List[Set[int]], List[UndoRecord], int], None]

#: The forced "pin" of a fault-site step whose fault sits on the output.
_OUT = -1

#: Step factories by (gate code, fan-in, reader count, forced pin, stuck
#: value), compiled once per process.  Each entry depends only on its
#: key, so sharing is safe.
_TEMPLATES: Dict[
    Tuple[int, int, Optional[int], Optional[int], int], Callable[..., Step]
] = {}


def _template(
    code: int,
    fanin: int,
    readers: Optional[int],
    pin: Optional[int] = None,
    stuck: int = 0,
) -> Callable[..., Step]:
    """The step factory for one gate shape and injection, made on first use.

    ``make(inputs..., out, readers...)`` returns a step binding them as
    defaults: one tuple, not a closure cell each.  A plain step (``pin``
    ``None``) binds a (level, position) pair per reader.  A fault-site
    step forces input 0 (``pin`` 0) or its output (:data:`_OUT`) to
    ``stuck`` in the faulty slot and binds its readers as one tuple, so
    its key has no reader count (``readers`` ``None``): one gate per
    model runs it, and fewer keys mean fewer compiles.
    """
    key = (code, fanin, readers, pin, stuck)
    factory = _TEMPLATES.get(key)
    if factory is None:
        ins = [(f"a{k}", f"b{k}") for k in range(fanin)]
        force = (stuck, str(_FAULTY), str(MASK2 ^ _FAULTY))
        body = [f"a{k} = v1[i{k}]; b{k} = v0[i{k}]" for k in range(fanin)]
        if pin == 0:
            body += force_lines(*ins[0], *force)
        body += gate_lines(code, ins, ("p1", "p0"), str(MASK2))
        if pin == _OUT:
            body += force_lines("p1", "p0", *force)
        params = [f"i{k}" for k in range(fanin)] + ["out"]
        if readers is None:
            params.append("rs")
            schedule = ["for l, r in rs: pending[l].add(r)"]
        else:
            params += [f"{x}{k}" for k in range(readers) for x in "lr"]
            schedule = [f"pending[l{k}].add(r{k})" for k in range(readers)]
        bound = "".join(f", {p}={p}" for p in params)
        lines = [f"def make({', '.join(params)}):",
                 f"    def step(v1, v0, pending, undo, frame{bound}):"]
        lines += ["        " + line for line in body]
        lines += ["        o1 = v1[out]; o0 = v0[out]",
                  "        if p1 != o1 or p0 != o0:",
                  "            undo.append((frame, out, o1, o0))",
                  "            v1[out] = p1; v0[out] = p0"]
        lines += ["            " + line for line in schedule]
        lines.append("    return step")
        namespace: Dict[str, Any] = {"__builtins__": {}}
        exec(  # noqa: S102 - generated from the gate shape and injection only
            compile("\n".join(lines), f"<unrolled-step {key}>", "exec"),
            namespace,
        )
        factory = _TEMPLATES.setdefault(key, namespace["make"])
    return factory


def _step(
    cc: CompiledCircuit, pos: int, pin: Optional[int] = None, stuck: int = 0
) -> Step:
    """The step of gate ``pos``; given ``pin``, its fault-site step."""
    gate = cc.gates[pos]
    fanin = list(gate.fanin)
    readers = [
        (cc.gates[r].level, r) for r in dict.fromkeys(cc.fanout_gates[gate.out])
    ]
    if pin is None:
        factory = _template(gate.code, len(fanin), len(readers))
        return factory(*fanin, gate.out, *(x for pair in readers for x in pair))
    if pin != _OUT:  # every gate is symmetric in its inputs: force the first
        fanin.insert(0, fanin.pop(pin))
        pin = 0
    factory = _template(gate.code, len(fanin), None, pin, stuck)
    return factory(*fanin, gate.out, tuple(readers))


#: Leaf kinds per net: a gate output, a primary input (a leaf in every
#: frame), or a flip-flop output (a leaf in frame 0 only).
_GATE, _PI, _PPI = 0, 1, 2


class _Implication:
    """Per-circuit implication tables, built once and cached on the circuit.

    Attributes:
        level: gate position -> its level (its pending bucket).
        steps: gate position -> its compiled plain :data:`Step`.
        leaf: net index -> leaf kind (``_GATE``, ``_PI`` or ``_PPI``).
        ff_outs: D-input net -> the flip-flop outputs it feeds.
    """

    def __init__(self, cc: CompiledCircuit):
        self.level: List[int] = [gate.level for gate in cc.gates]
        self.steps: List[Step] = [_step(cc, pos) for pos in range(len(cc.gates))]
        self.leaf = [_PI if pos is None else _GATE for pos in cc.gate_of]
        for idx in cc.ff_out:
            self.leaf[idx] = _PPI
        self.ff_outs: Dict[int, List[int]] = {}
        for in_idx, out_idx in zip(cc.ff_in, cc.ff_out):
            self.ff_outs.setdefault(in_idx, []).append(out_idx)


def _implication(cc: CompiledCircuit) -> _Implication:
    """The tables of ``cc``, built on first use; racing builds are equal."""
    tables = vars(cc).get("_unrolled_implication")
    if tables is None:
        tables = vars(cc).setdefault("_unrolled_implication", _Implication(cc))
    return tables


class UnrolledModel:
    """Nine-valued good/faulty simulation over an unrolled frame window.

    Args:
        cc: compiled circuit.
        fault: the target fault, or ``None`` for fault-free operation
            (used by deterministic state justification).
        num_frames: number of time frames in the window (≥ 1).
    """

    def __init__(
        self, cc: CompiledCircuit, fault: Optional[Fault], num_frames: int = 1
    ):
        if num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        self.cc = cc
        self.fault = fault
        self.num_frames = num_frames

        # injection handles
        self._stem_idx: Optional[int] = None
        self._pin_gate: Optional[int] = None  # gate position
        self._pin: Optional[int] = None
        self._ff_pos: Optional[int] = None
        self._site_idx: Optional[int] = None
        self._stuck = 0
        #: first frame the injection is active in.  Stuck-at faults are
        #: present in every frame; a transition fault's slow edge only
        #: matters from the launch frame on — the engine approximates it
        #: as the stuck value in frames >= launch and requires the site
        #: to hold the initial value in the frame before (candidates are
        #: confirmed against true two-frame semantics by fault
        #: simulation before being reported).
        self._inject_from = 0
        self._tables = _implication(cc)
        #: each frame's steps; from the launch frame on, a faulty model's
        #: list carries the fault-site step
        self._steps: List[List[Step]] = [self._tables.steps] * num_frames
        #: (frame, net) pairs where the injection itself can put a D/D̄,
        #: from which :meth:`d_frontier` walks
        self._d_seeds: List[Tuple[int, int]] = []
        site_gate: Optional[int] = None
        if fault is not None:
            if fault.model != DEFAULT_FAULT_MODEL:
                self._inject_from = resolve_fault_model(
                    fault.model
                ).inject_from_frame
            site = injection_for(cc, fault, _FAULTY)
            self._site_idx, self._stuck = site.net, site.stuck
            self._pin_gate, self._pin = site.gate_pos, site.pin
            self._ff_pos = site.ff_pos
            # the fault-site gate: the pin-fault reader, or the gate
            # driving a stem (a stem on a source is forced by _write)
            site_gate, pin = site.gate_pos, site.pin
            if site.gate_pos is None and site.ff_pos is None:
                self._stem_idx = site.net
                site_gate, pin = cc.gate_of[site.net], _OUT
            if site_gate is not None:
                injected = list(self._tables.steps)
                injected[site_gate] = _step(cc, site_gate, pin, site.stuck)
                for frame in range(self._inject_from, num_frames):
                    self._steps[frame] = injected
            first, seed = self._inject_from, site.net
            if site.ff_pos is not None:  # forced where frame 1 on latches
                first, seed = max(1, first), cc.ff_out[site.ff_pos]
            elif site.gate_pos is not None:
                seed = cc.gates[site.gate_pos].out
            self._d_seeds = [(frame, seed) for frame in range(first, num_frames)]

        base1, base0 = _baseline(cc, num_frames)
        self.v1: List[List[int]] = [list(row) for row in base1]
        self.v0: List[List[int]] = [list(row) for row in base0]
        self._pending: List[List[Set[int]]] = [
            [set() for _ in range(cc.num_levels + 1)] for _ in range(num_frames)
        ]
        if fault is not None:
            # the injection becomes events on the fault-free baseline, so
            # only the site's cone is re-evaluated (DFF branches: _latch)
            stem = self._stem_idx
            for frame in range(self._inject_from, num_frames):
                if site_gate is not None:
                    self._pending[frame][cc.gates[site_gate].level].add(site_gate)
                elif stem is not None:
                    self._write(frame, stem, self.value(frame, stem), [])
            self._settle(0, [])

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------
    def value(self, frame: int, idx: int) -> PackedValue:
        """Packed (good, faulty) value of a net in a frame."""
        return self.v1[frame][idx], self.v0[frame][idx]

    def good(self, frame: int, idx: int) -> int:
        """Good-circuit scalar value of a net in a frame (slot 0)."""
        one = self.v1[frame][idx] & 1
        zero = self.v0[frame][idx] & 1
        if one:
            return X if zero else 1
        if zero:
            return 0
        raise ValueError("slot 0 holds the invalid (0,0) encoding")

    @property
    def launch_frame(self) -> int:
        """Frame the fault must be excited in (0 except for transition)."""
        return self._inject_from

    @property
    def site_idx(self) -> Optional[int]:
        """Net index of the fault site, or ``None`` when fault-free."""
        return self._site_idx

    def is_leaf(self, frame: int, idx: int) -> bool:
        """True for decidable leaves: any-frame PIs and frame-0 PPIs."""
        kind = self._tables.leaf[idx]
        return kind == _PI or (kind == _PPI and frame == 0)

    # ------------------------------------------------------------------
    # assignment / propagation / undo
    # ------------------------------------------------------------------
    def assign(self, frame: int, idx: int, scalar: int) -> List[UndoRecord]:
        """Assign 0, 1 or X to a leaf and propagate; returns the undo log.

        Assigning X releases the leaf: every net then holds the value it
        would have had if the leaf had never been assigned, whatever order
        leaves were assigned in.  Leaf values are identical in the good
        and faulty circuits (inputs are never faulted differently; a stuck
        PI is handled by the injection masking below).
        """
        if not self.is_leaf(frame, idx):
            raise ValueError(
                f"({frame}, {self.cc.net_names[idx]}) is not a decidable leaf"
            )
        undo: List[UndoRecord] = []
        self._write(frame, idx, make9(scalar, scalar), undo)
        self._settle(frame, undo)
        return undo

    def unassign(self, undo: List[UndoRecord]) -> None:
        """Revert a previous :meth:`assign` using its undo log.

        Only values need restoring: every :meth:`_settle` drains the
        pending buckets it fills, so they are empty between calls.
        """
        for frame, idx, p1, p0 in reversed(undo):
            self.v1[frame][idx] = p1
            self.v0[frame][idx] = p0

    def _write(
        self, frame: int, idx: int, value: PackedValue, undo: List[UndoRecord]
    ) -> None:
        p1, p0 = value
        if self._stem_idx == idx and frame >= self._inject_from:
            p1, p0 = apply_stuck(value, self._stuck, _FAULTY)
        v1, v0 = self.v1[frame], self.v0[frame]
        o1, o0 = v1[idx], v0[idx]
        if p1 == o1 and p0 == o0:
            return
        undo.append((frame, idx, o1, o0))
        v1[idx] = p1
        v0[idx] = p0
        pending, level = self._pending[frame], self._tables.level
        for pos in self.cc.fanout_gates[idx]:
            pending[level[pos]].add(pos)

    def effective_inputs(self, frame: int, pos: int) -> List[PackedValue]:
        """Gate input values as the gate sees them (branch fault applied)."""
        gate = self.cc.gates[pos]
        vals = [self.value(frame, i) for i in gate.fanin]
        if pos == self._pin_gate and frame >= self._inject_from:
            vals[self._pin] = apply_stuck(vals[self._pin], self._stuck, _FAULTY)
        return vals

    def _settle(self, start_frame: int, undo: List[UndoRecord]) -> None:
        """Run each pending gate's step, level by level, frame by frame.

        Readers sit on higher levels, so a bucket never refills while it
        drains.
        """
        for frame in range(start_frame, self.num_frames):
            pending = self._pending[frame]
            steps = self._steps[frame]
            v1, v0 = self.v1[frame], self.v0[frame]
            for bucket in pending:
                while bucket:
                    steps[bucket.pop()](v1, v0, pending, undo, frame)
            if frame + 1 < self.num_frames:
                self._latch(frame, undo)

    def _latch(self, frame: int, undo: List[UndoRecord]) -> None:
        """Carry frame ``frame`` D-input values into frame ``frame+1``."""
        cc = self.cc
        for ff_pos, (out_idx, in_idx) in enumerate(zip(cc.ff_out, cc.ff_in)):
            val = self.value(frame, in_idx)
            if ff_pos == self._ff_pos and frame + 1 >= self._inject_from:
                val = apply_stuck(val, self._stuck, _FAULTY)
            self._write(frame + 1, out_idx, val, undo)

    # ------------------------------------------------------------------
    # ATPG queries
    # ------------------------------------------------------------------
    def detected_at(self, observe_ppo: bool = False) -> Optional[Tuple[int, int]]:
        """First (frame, net index) where a D/D̄ reaches an observation point.

        Observation points are the primary outputs; with ``observe_ppo``
        the last frame's flip-flop D inputs count too (scan-style testing,
        where captured state is shifted out and compared).  Outputs are
        tested on raw words, as in :meth:`d_frontier`.
        """
        for frame in range(self.num_frames):
            v1, v0 = self.v1[frame], self.v0[frame]
            for po in self.cc.po:
                a1 = v1[po]
                if (a1 ^ v0[po]) == MASK2 and (a1 & 1) != (a1 >> 1):
                    return frame, po
        if observe_ppo:
            last = self.num_frames - 1
            for idx in self.cc.ff_in:
                if is_d(self.value(last, idx)):
                    return last, idx
        return None

    def fault_excited(self, frame: int = 0) -> bool:
        """True when the fault produces a D at its site in ``frame``.

        For a stem fault the injected net itself shows D; for a branch
        fault the site is the reading gate's input view.
        """
        if self.fault is None:
            return True
        site = self.value(frame, self._site_idx)
        if self._stem_idx is not None:
            return is_d(site)
        # branch fault: excited when the source's good value opposes stuck
        g = good_of(site)
        return g != X and g != self._stuck

    def excitation_possible(self, frame: int = 0) -> bool:
        """False once the site's good value is fixed at the stuck value."""
        if self.fault is None:
            return True
        g = self.good(frame, self._site_idx)
        return g == X or g != self._stuck

    def d_frontier(self) -> List[Tuple[int, int]]:
        """Gates with a D/D̄ input and an X-bearing output, as (frame, pos).

        Sorted by (frame, position), the order ``PodemEngine._objective``
        breaks its ties in.  Walks the fault's D region from the
        injection instead of scanning the window: three-valued
        evaluation is monotone, so a D/D̄ lies only at the injection or
        downstream of another one, in its frame or past a flip-flop
        (docs/ALGORITHMS.md has the argument).  From the launch frame on,
        the pin-fault gate is tested on its inputs as it sees them
        (:meth:`effective_inputs`): its force can put a D on the pin, or
        remove one arriving on the source.

        Works on raw value words: a slot pair is D/D̄ when both two-bit
        halves are known (``p1 ^ p0 == 0b11``) and the good and faulty
        bits of ``p1`` differ; the output bears X when ``p1 & p0 != 0``.
        """
        gates, fanout = self.cc.gates, self.cc.fanout_gates
        ff_outs = self._tables.ff_outs
        pin_gate, launch = self._pin_gate, self._inject_from
        last = self.num_frames - 1
        frontier: Set[Tuple[int, int]] = set()
        seen: Set[Tuple[int, int]] = set()
        stack = list(self._d_seeds)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            frame, idx = node
            v1, v0 = self.v1[frame], self.v0[frame]
            a1 = v1[idx]
            if (a1 ^ v0[idx]) != MASK2 or (a1 & 1) == (a1 >> 1):
                continue  # not D/D̄
            for pos in fanout[idx]:
                if pos == pin_gate and frame >= launch:
                    continue  # its forced pin is tested below
                out = gates[pos].out
                if v1[out] & v0[out]:
                    frontier.add((frame, pos))
                else:
                    stack.append((frame, out))
            if frame < last and idx in ff_outs:
                stack.extend((frame + 1, out) for out in ff_outs[idx])
        if pin_gate is not None:
            out = gates[pin_gate].out
            for frame in range(launch, self.num_frames):
                if self.v1[frame][out] & self.v0[frame][out] and any(
                    is_d(v) for v in self.effective_inputs(frame, pin_gate)
                ):
                    frontier.add((frame, pin_gate))
        return sorted(frontier)

    def d_reaches_window_edge(self) -> bool:
        """True when a fault effect sits at the last frame's D inputs.

        Indicates the propagation window (not the logic) cut the search
        short — the caller must not claim untestability in that case.  A
        branch fault feeding a flip-flop's D pin counts as soon as it is
        excitable in the last frame: its effect only ever materialises one
        frame later.
        """
        last = self.num_frames - 1
        if any(is_d(self.value(last, i)) for i in self.cc.ff_in):
            return True
        if self._ff_pos is not None:
            g = self.good(last, self._site_idx)
            return g == X or g != self._stuck
        return False

    def x_path_info(
        self, frontier: Sequence[Tuple[int, int]]
    ) -> Tuple[bool, bool]:
        """X-path reachability from the D-frontier.

        Returns:
            ``(po_reachable, edge_reachable)`` — whether an all-X path
            leads from some frontier gate to a primary output within the
            window, and whether one leads to a last-frame flip-flop D
            input (i.e. the fault effect could survive past the window,
            so failure must not be treated as proof of untestability).
        """
        if not frontier:
            return False, False
        cc = self.cc
        po_set = set(cc.po)
        # one D-input net may feed several flip-flops: cross into each
        ff_outs = self._tables.ff_outs
        seen: Set[Tuple[int, int]] = set()
        stack: List[Tuple[int, int]] = [
            (frame, cc.gates[pos].out) for frame, pos in frontier
        ]
        edge = False
        while stack:
            frame, idx = stack.pop()
            if (frame, idx) in seen:
                continue
            seen.add((frame, idx))
            v1, v0 = self.v1[frame], self.v0[frame]
            a1 = v1[idx]
            if not (a1 & v0[idx]) and (a1 & 1) == (a1 >> 1):
                continue  # neither X-bearing nor D/D̄
            if idx in po_set:
                return True, edge
            if idx in ff_outs:
                if frame + 1 < self.num_frames:
                    stack.extend((frame + 1, out) for out in ff_outs[idx])
                else:
                    edge = True
            for pos in cc.fanout_gates[idx]:
                out = cc.gates[pos].out
                if v1[out] & v0[out]:  # the reader's output bears an X
                    stack.append((frame, out))
        return False, edge

    # ------------------------------------------------------------------
    # solution extraction
    # ------------------------------------------------------------------
    def extract_vectors(self, up_to_frame: int) -> List[List[int]]:
        """Good-slot PI values per frame, scalars in PI order (X allowed)."""
        return [
            [self.good(f, i) for i in self.cc.pi] for f in range(up_to_frame + 1)
        ]

    def required_state(self) -> Dict[str, int]:
        """Cared frame-0 flip-flop requirements, as {ff net name: 0/1}."""
        req: Dict[str, int] = {}
        for idx in self.cc.ff_out:
            g = self.good(0, idx)
            if g != X:
                req[self.cc.net_names[idx]] = g
        return req
