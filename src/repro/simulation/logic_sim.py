"""Event-driven, bit-parallel, three-valued sequential logic simulation.

:class:`FrameSimulator` holds the packed value of every net and advances the
circuit one synchronous time frame at a time: apply a primary-input vector,
propagate events level by level, read primary outputs, clock the flip-flops.
Values are PROOFS-encoded ``(p1, p0)`` word pairs (see
:mod:`repro.simulation.encoding`), so one simulator instance advances
``width`` independent pattern slots at once.

Fault injection follows PROOFS: a stuck-at fault is modelled as if an
AND/OR gate were spliced in at the fault site, realised here by masking the
affected slots of the faulted net (stem faults) or of one gate's view of an
input net (branch faults) — so different slots can carry different faults.

Transition (gross-delay) injections generalize the splice: instead of a
constant, the spliced element combines the site's freshly computed value
with the value it computed in the *previous* frame — a slow-to-rise site
is the three-valued AND of the two (it cannot show a 1 until it has held
one for a frame), slow-to-fall the three-valued OR.  The simulator keeps
per-site previous/current raw values and advances them at each clock
edge; the previous value starts as X, which is conservative (it can mask
a detection in frame 0 but never invent one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from .compiled import CompiledCircuit, compile_circuit
from .encoding import (
    PackedValue,
    X,
    eval_packed,
    full_mask,
    pack_const,
)

#: The simulator a caller gets unless it names one: the event-driven
#: interpreter, which grades faults and is the differential oracle.
DEFAULT_BACKEND = "event"

#: Registered simulator classes by backend name.
_BACKENDS: "Dict[str, Type[FrameSimulator]]" = {}


def register_backend(name: str, cls: "Type[FrameSimulator]") -> None:
    """Register a frame-simulator class under a backend name."""
    _BACKENDS[name] = cls


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend choice to a registered name.

    ``None`` gives :data:`DEFAULT_BACKEND`.  An unregistered name raises
    :class:`ValueError`.
    """
    name = backend or DEFAULT_BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"registered: {sorted(_BACKENDS)}"
        )
    return name


def make_simulator(
    circuit: "Circuit | CompiledCircuit",
    width: int = 64,
    injections: "Iterable[Injection]" = (),
    backend: Optional[str] = None,
) -> "FrameSimulator":
    """Construct a frame simulator for the selected backend."""
    cls = _BACKENDS[resolve_backend(backend)]
    return cls(circuit, width=width, injections=injections)


@dataclass(frozen=True)
class Injection:
    """A fault injected into selected simulation slots.

    Attributes:
        net: index of the faulted net.
        stuck: the stuck value (0 or 1); under the transition model, the
            lingering value (0 = slow-to-rise, 1 = slow-to-fall).
        mask: word mask of the slots that see the fault.
        gate_pos: for a branch (gate-input) fault, the position of the
            reading gate in the compiled gate list; ``None`` for a stem
            fault on the net itself.
        pin: for a branch fault, the input pin index on that gate.
        ff_pos: for a branch fault feeding a flip-flop's D pin, the
            flip-flop's position in ``cc.ff_out`` order; the stuck value is
            applied to the value latched at each clock edge.
        model: fault-model name selecting the activation condition
            (``stuck_at``: constant force; ``transition``: previous-frame
            combine).  Appended with a default so stuck-at construction
            sites are unchanged.
    """

    net: int
    stuck: int
    mask: int
    gate_pos: Optional[int] = None
    pin: Optional[int] = None
    ff_pos: Optional[int] = None
    model: str = "stuck_at"


def apply_stuck(value: PackedValue, stuck: int, mask: int) -> PackedValue:
    """Force the masked slots of ``value`` to the stuck constant."""
    p1, p0 = value
    if stuck == 1:
        return p1 | mask, p0 & ~mask
    return p1 & ~mask, p0 | mask


def _combine_transition(
    raw: PackedValue, prev: PackedValue, stuck: int
) -> PackedValue:
    """Three-valued combine of a site's current and previous raw values.

    Slow-to-rise (``stuck=0``) is the 3-valued AND (a 1 shows only when
    both frames computed 1), slow-to-fall the 3-valued OR.  With either
    operand X the result degrades toward X except where the other operand
    is the controlling value — exactly the conservative behaviour the
    all-X first frame needs.
    """
    c1, c0 = raw
    pr1, pr0 = prev
    if stuck == 0:
        return c1 & pr1, c0 | pr0
    return c1 | pr1, c0 & pr0


def _blend(value: PackedValue, forced: PackedValue, mask: int) -> PackedValue:
    """Replace the masked slots of ``value`` with ``forced``."""
    p1, p0 = value
    f1, f0 = forced
    return (p1 & ~mask) | (f1 & mask), (p0 & ~mask) | (f0 & mask)


def _eval_ints(code: int, fanin, v1, v0, mask: int) -> PackedValue:
    """Inline bit-parallel gate evaluation over raw value arrays.

    The hot loop of every simulator: equivalent to
    :func:`repro.simulation.encoding.eval_packed`, but dispatching on the
    compiled integer gate code and indexing the value arrays directly, so
    no per-gate tuples or lists are allocated.  The two implementations
    are differentially tested against each other.
    """
    if code <= 1:  # AND / NAND
        p1, p0 = mask, 0
        for i in fanin:
            p1 &= v1[i]
            p0 |= v0[i]
        return (p0, p1) if code else (p1, p0)
    if code <= 3:  # OR / NOR
        p1, p0 = 0, mask
        for i in fanin:
            p1 |= v1[i]
            p0 &= v0[i]
        return (p0, p1) if code == 3 else (p1, p0)
    if code <= 5:  # XOR / XNOR
        p1, p0 = 0, mask
        for i in fanin:
            a1, a0 = v1[i], v0[i]
            p1, p0 = ((p1 & a0) | (p0 & a1)) & mask, ((p1 & a1) | (p0 & a0)) & mask
        return (p0, p1) if code == 5 else (p1, p0)
    if code == 6:  # NOT
        i = fanin[0]
        return v0[i], v1[i]
    if code == 7:  # BUF
        i = fanin[0]
        return v1[i], v0[i]
    if code == 8:  # CONST0
        return 0, mask
    return mask, 0  # CONST1


class FrameSimulator:
    """Bit-parallel event-driven simulator with persistent state.

    Args:
        circuit: the circuit (or an already-compiled form) to simulate.
        width: number of parallel pattern slots per word.
        injections: stuck-at injections active for the simulator's lifetime.

    The flip-flop state starts all-X; use :meth:`set_state` to override.
    Typical frame loop::

        sim = FrameSimulator(circuit, width=64)
        for vector in vectors:              # vector: {pi_name: PackedValue}
            po = sim.step(vector)           # outputs for this frame
    """

    def __init__(
        self,
        circuit: "Circuit | CompiledCircuit",
        width: int = 64,
        injections: Iterable[Injection] = (),
    ):
        self.cc = circuit if isinstance(circuit, CompiledCircuit) else compile_circuit(circuit)
        self.width = width
        self.mask = full_mask(width)
        #: net index -> stem injections on that net (slots may differ per fault)
        self._stem_list: Dict[int, List[Injection]] = {}
        #: gate position -> branch injections seen only by that gate
        self._pin: Dict[int, List[Injection]] = {}
        #: flip-flop position -> branch injections on that D pin
        self._ff_pin: Dict[int, List[Injection]] = {}
        self._has_transition = False
        for inj in injections:
            if inj.stuck not in (0, 1):
                raise ValueError(f"stuck value must be 0/1, got {inj.stuck}")
            if inj.model != "stuck_at":
                self._has_transition = True
            if inj.ff_pos is not None:
                self._ff_pin.setdefault(inj.ff_pos, []).append(inj)
            elif inj.gate_pos is None:
                self._stem_list.setdefault(inj.net, []).append(inj)
            else:
                self._pin.setdefault(inj.gate_pos, []).append(inj)
        x_all = pack_const(X, width)
        self._x = x_all
        self.v1: List[int] = [x_all[0]] * self.cc.num_nets
        self.v0: List[int] = [x_all[1]] * self.cc.num_nets
        self._pending: List[set] = [set() for _ in range(self.cc.num_levels + 1)]
        self._dirty = True  # force a full first sweep
        # -- transition-model per-site state ---------------------------
        #: site key -> raw value the site computed in the previous frame.
        #: Keys: net index (stem), ("p", gate_pos, pin), ("f", ff_pos).
        self._tprev: Dict = {}
        #: site key -> raw value computed so far in the current frame
        self._tcur: Dict = {}
        #: raw (pre-force) value shadow for *source* nets carrying a
        #: transition stem — the stored net value is the forced one, so
        #: frame advance and full sweeps re-force from this shadow
        self._src_raw: Dict[int, PackedValue] = {}
        #: stem nets with at least one transition injection
        self._tr_stem_nets: set = set()
        #: source nets among those (PIs / FF outputs / constants)
        self._tr_src_nets: set = set()
        #: gate positions re-scheduled at every frame advance: readers of
        #: transition pins and drivers of transition gate-output stems —
        #: their forced value changes when prev advances even if no input
        #: event reaches them
        self._tr_wake: List[int] = []
        if self._has_transition:
            driver_pos = {g.out: pos for pos, g in enumerate(self.cc.gates)}
            for net, injs in self._stem_list.items():
                if not any(i.model != "stuck_at" for i in injs):
                    continue
                self._tr_stem_nets.add(net)
                self._tprev[net] = x_all
                self._tcur[net] = x_all
                if self.cc.is_source(net):
                    self._tr_src_nets.add(net)
                    self._src_raw[net] = x_all
                else:
                    self._tr_wake.append(driver_pos[net])
            for pos, injs in self._pin.items():
                wake = False
                for inj in injs:
                    if inj.model == "stuck_at":
                        continue
                    key = ("p", pos, inj.pin)
                    self._tprev[key] = x_all
                    self._tcur[key] = x_all
                    wake = True
                if wake:
                    self._tr_wake.append(pos)
            for ff_pos, injs in self._ff_pin.items():
                if any(i.model != "stuck_at" for i in injs):
                    key = ("f", ff_pos)
                    self._tprev[key] = x_all
                    self._tcur[key] = x_all

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every net (including flip-flop state) to all-X."""
        x1, x0 = pack_const(X, self.width)
        for i in range(self.cc.num_nets):
            self.v1[i] = x1
            self.v0[i] = x0
        if self._has_transition:
            for key in self._tprev:
                self._tprev[key] = (x1, x0)
                self._tcur[key] = (x1, x0)
            for idx in self._src_raw:
                self._src_raw[idx] = (x1, x0)
        self._dirty = True

    def set_state(self, values: "Dict[str, PackedValue] | Sequence[PackedValue]") -> None:
        """Set flip-flop output values (packed), by name map or FF order."""
        if isinstance(values, dict):
            items = [
                (self.cc.index[name], val) for name, val in values.items()
            ]
        else:
            items = list(zip(self.cc.ff_out, values))
        for idx, val in items:
            self._write_source(idx, val)

    def get_state(self) -> List[PackedValue]:
        """Current flip-flop output values, in flip-flop order.

        A transition stem on a flip-flop output stores the *forced*
        (delay-combined) value on the net; the latch itself holds the raw
        value.  Carrying the forced value forward would re-apply the delay
        in the next run, so those slots report the raw shadow instead —
        restoring via :meth:`set_state` re-forces from it.
        """
        out: List[PackedValue] = []
        for i in self.cc.ff_out:
            val = (self.v1[i], self.v0[i])
            if i in self._tr_src_nets:
                tmask = 0
                for inj in self._stem_list[i]:
                    if inj.model != "stuck_at":
                        tmask |= inj.mask
                val = _blend(val, self._src_raw[i], tmask)
            out.append(val)
        return out

    def read(self, net: str) -> PackedValue:
        """Packed value of a net by name."""
        i = self.cc.index[net]
        return self.v1[i], self.v0[i]

    def read_outputs(self) -> List[PackedValue]:
        """Primary output values, in declaration order."""
        return [(self.v1[i], self.v0[i]) for i in self.cc.po]

    def read_next_state(self) -> List[PackedValue]:
        """Values currently at the flip-flop D inputs (next state)."""
        return [(self.v1[i], self.v0[i]) for i in self.cc.ff_in]

    # ------------------------------------------------------------------
    # frame advance
    # ------------------------------------------------------------------
    def step(
        self, vector: "Dict[str, PackedValue] | Sequence[PackedValue]"
    ) -> List[PackedValue]:
        """Apply one input vector, settle, read POs, then clock the DFFs.

        Args:
            vector: packed PI values, as a name map or in PI declaration
                order (missing PIs keep their previous value).

        Returns:
            The primary output values of this frame (before the clock edge).
        """
        self.apply_inputs(vector)
        self.settle()
        outputs = self.read_outputs()
        self.clock()
        return outputs

    def apply_inputs(
        self, vector: "Dict[str, PackedValue] | Sequence[PackedValue]"
    ) -> None:
        """Drive primary inputs (no propagation yet)."""
        if isinstance(vector, dict):
            items = [(self.cc.index[name], val) for name, val in vector.items()]
        else:
            items = list(zip(self.cc.pi, vector))
        for idx, val in items:
            self._write_source(idx, val)

    def settle(self) -> None:
        """Propagate pending events through the combinational logic."""
        if self._dirty:
            self._full_sweep()
            self._dirty = False
            return
        gates = self.cc.gates
        v1, v0 = self.v1, self.v0
        mask = self.mask
        pin = self._pin
        stems = self._stem_list
        fanout = self.cc.fanout_gates
        pending = self._pending
        for level_bucket in pending:
            while level_bucket:
                pos = level_bucket.pop()
                gate = gates[pos]
                if pos in pin:
                    vals = self._gate_inputs(pos, gate)
                    p1, p0 = eval_packed(gate.gtype, vals, mask)
                else:
                    p1, p0 = _eval_ints(gate.code, gate.fanin, v1, v0, mask)
                out = gate.out
                injs = stems.get(out)
                if injs:
                    p1, p0 = self._apply_stem(out, injs, p1, p0)
                if p1 != v1[out] or p0 != v0[out]:
                    v1[out] = p1
                    v0[out] = p0
                    for fpos in fanout[out]:
                        pending[gates[fpos].level].add(fpos)

    def clock(self) -> None:
        """Latch D-input values into flip-flop outputs and propagate.

        The clock edge is the frame boundary: transition sites advance
        their previous-frame raw value here, and any site whose forced
        value depends on it is re-forced / re-scheduled so the next
        settle sees the new combine even without an input event.
        """
        new_vals = [(self.v1[i], self.v0[i]) for i in self.cc.ff_in]
        for ff_pos, injs in self._ff_pin.items():
            val = new_vals[ff_pos]
            raw = val
            for inj in injs:
                if inj.model == "stuck_at":
                    val = apply_stuck(val, inj.stuck, inj.mask)
                else:
                    key = ("f", ff_pos)
                    self._tcur[key] = raw
                    forced = _combine_transition(
                        raw, self._tprev[key], inj.stuck
                    )
                    val = _blend(val, forced, inj.mask)
            new_vals[ff_pos] = val
        if self._has_transition:
            self._advance_frame()
        for out_idx, val in zip(self.cc.ff_out, new_vals):
            self._write_source(out_idx, val)
        self.settle()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _write_source(self, idx: int, value: PackedValue) -> None:
        p1, p0 = value
        mask = self.mask
        p1 &= mask
        p0 &= mask
        injs = self._stem_list.get(idx)
        if injs:
            if idx in self._tr_src_nets:
                self._src_raw[idx] = (p1, p0)
            p1, p0 = self._apply_stem(idx, injs, p1, p0)
        if (p1, p0) != (self.v1[idx], self.v0[idx]):
            self.v1[idx] = p1
            self.v0[idx] = p0
            self._schedule_fanout(idx)

    def _apply_stem(self, idx: int, injs, p1: int, p0: int) -> PackedValue:
        """Apply every stem injection on net ``idx`` to its raw value."""
        if idx in self._tr_stem_nets:
            raw = (p1, p0)
            self._tcur[idx] = raw
            prev = self._tprev[idx]
            for inj in injs:
                if inj.model == "stuck_at":
                    p1, p0 = apply_stuck((p1, p0), inj.stuck, inj.mask)
                else:
                    forced = _combine_transition(raw, prev, inj.stuck)
                    p1, p0 = _blend((p1, p0), forced, inj.mask)
            return p1, p0
        for inj in injs:
            p1, p0 = apply_stuck((p1, p0), inj.stuck, inj.mask)
        return p1, p0

    def _advance_frame(self) -> None:
        """Roll transition sites over a clock edge (prev <- cur)."""
        tprev, tcur = self._tprev, self._tcur
        for key in tprev:
            tprev[key] = tcur[key]
        # sources keep their raw value across the edge, but the forced
        # value changes with the advanced prev — re-force from the shadow
        for idx in self._tr_src_nets:
            p1, p0 = self._src_raw[idx]
            p1, p0 = self._apply_stem(idx, self._stem_list[idx], p1, p0)
            if (p1, p0) != (self.v1[idx], self.v0[idx]):
                self.v1[idx] = p1
                self.v0[idx] = p0
                self._schedule_fanout(idx)
        gates = self.cc.gates
        for pos in self._tr_wake:
            self._pending[gates[pos].level].add(pos)

    def _schedule_fanout(self, idx: int) -> None:
        gates = self.cc.gates
        for pos in self.cc.fanout_gates[idx]:
            self._pending[gates[pos].level].add(pos)

    def _gate_inputs(self, pos: int, gate) -> List[PackedValue]:
        """Input values as the gate sees them (branch injections applied)."""
        vals = [(self.v1[i], self.v0[i]) for i in gate.fanin]
        injs = self._pin.get(pos, ())
        if not self._has_transition:
            for inj in injs:
                vals[inj.pin] = apply_stuck(vals[inj.pin], inj.stuck, inj.mask)
            return vals
        raws: Dict[int, PackedValue] = {}
        for inj in injs:
            raw = raws.setdefault(inj.pin, vals[inj.pin])
            if inj.model == "stuck_at":
                vals[inj.pin] = apply_stuck(vals[inj.pin], inj.stuck, inj.mask)
            else:
                key = ("p", pos, inj.pin)
                self._tcur[key] = raw
                forced = _combine_transition(raw, self._tprev[key], inj.stuck)
                vals[inj.pin] = _blend(vals[inj.pin], forced, inj.mask)
        return vals

    def _full_sweep(self) -> None:
        for bucket in self._pending:
            bucket.clear()
        # re-assert stem injections on sources (PIs / FF outputs / consts);
        # transition-forced sources re-force from the raw shadow (the
        # stored value already has the force folded in)
        for idx, injs in self._stem_list.items():
            if self.cc.is_source(idx):
                if idx in self._tr_src_nets:
                    p1, p0 = self._src_raw[idx]
                else:
                    p1, p0 = self.v1[idx], self.v0[idx]
                p1, p0 = self._apply_stem(idx, injs, p1, p0)
                self.v1[idx], self.v0[idx] = p1, p0
        v1, v0 = self.v1, self.v0
        mask = self.mask
        pin = self._pin
        stems = self._stem_list
        for pos, gate in enumerate(self.cc.gates):
            if pos in pin:
                vals = self._gate_inputs(pos, gate)
                p1, p0 = eval_packed(gate.gtype, vals, mask)
            else:
                p1, p0 = _eval_ints(gate.code, gate.fanin, v1, v0, mask)
            injs = stems.get(gate.out)
            if injs:
                p1, p0 = self._apply_stem(gate.out, injs, p1, p0)
            v1[gate.out] = p1
            v0[gate.out] = p0


register_backend("event", FrameSimulator)


def simulate_sequence(
    circuit: "Circuit | CompiledCircuit",
    vectors: Sequence[Dict[str, PackedValue]],
    width: int = 1,
    injections: Iterable[Injection] = (),
    initial_state: Optional[Dict[str, PackedValue]] = None,
) -> List[List[PackedValue]]:
    """Convenience wrapper: simulate a vector sequence from a given state.

    Returns the list of primary-output value lists, one per frame.
    """
    sim = make_simulator(circuit, width=width, injections=injections)
    if initial_state:
        sim.set_state(initial_state)
    return [sim.step(v) for v in vectors]
