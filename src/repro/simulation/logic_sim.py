"""Bit-parallel, three-valued sequential logic simulation.

:class:`FrameSimulator` holds the packed value of every net and advances the
circuit one synchronous time frame at a time: apply a primary-input vector,
settle the combinational logic, read primary outputs, clock the flip-flops.
Values are PROOFS-encoded ``(p1, p0)`` word pairs (see
:mod:`repro.simulation.encoding`), so one simulator instance advances
``width`` independent pattern slots at once.

The simulator latches lazily: :meth:`FrameSimulator.clock` writes the new
state, and the next read settles it together with the next frame's inputs.
It owns the state and the frame protocol of every backend; a backend only
decides how the gates settle.  This class settles by events, level by
level; :mod:`repro.simulation.codegen` runs one generated sweep instead.

Fault injection follows PROOFS: a stuck-at fault is modelled as if an
AND/OR gate were spliced in at the fault site, realised here by masking the
affected slots of the faulted net (stem faults) or of one gate's view of an
input net (branch faults) — so different slots can carry different faults.

Transition (gross-delay) injections generalize the splice: instead of a
constant, the spliced element combines the site's freshly computed value
with the value it computed in the *previous* frame — a slow-to-rise site
is the three-valued AND of the two (it cannot show a 1 until it has held
one for a frame), slow-to-fall the three-valued OR.  Each site keeps its
previous-frame raw value and rolls it over at the clock edge; it starts as
X, which is conservative (it can mask a detection in frame 0 but never
invent one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from ..circuit.netlist import Circuit
from .compiled import CompiledCircuit, compile_circuit
from .encoding import PackedValue, X, full_mask, pack_const

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


def _force(
    raw: PackedValue, injs: Sequence[Injection], prev: Optional[PackedValue]
) -> PackedValue:
    """A site's value with its injections forced onto its raw value.

    ``prev`` is the site's raw value in the previous frame; only a
    transition injection reads it.
    """
    value = raw
    for inj in injs:
        if inj.model == "stuck_at":
            value = apply_stuck(value, inj.stuck, inj.mask)
        else:
            value = _blend(
                value, _combine_transition(raw, prev, inj.stuck), inj.mask
            )
    return value


def _transition_mask(injs: Iterable[Injection]) -> int:
    """Slots of the site's transition injections (0 when it has none)."""
    tmask = 0
    for inj in injs:
        if inj.model != "stuck_at":
            tmask |= inj.mask
    return tmask


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
    """Bit-parallel sequential simulator with persistent state.

    Args:
        circuit: the circuit (or an already-compiled form) to simulate.
        width: number of parallel pattern slots per word.
        injections: fault injections active for the simulator's lifetime.

    The flip-flop state starts all-X; use :meth:`set_state` to override.
    Typical frame loop::

        sim = FrameSimulator(circuit, width=64)
        for vector in vectors:              # vector: {pi_name: PackedValue}
            po = sim.step(vector)           # outputs for this frame

    This class owns the value words, the source writes (primary inputs
    and flip-flop outputs, with their stem injections forced on every
    write), the clock edge with its D-pin injections, and the
    previous-frame values of those transition sites.  The gates settle
    through five hooks a backend overrides: :meth:`_init_gates`,
    :meth:`_changed`, :meth:`settle`, :meth:`_roll` and
    :meth:`_reset_gates`.  Here they propagate events level by level, with
    the gate-level injections (gate-output stems and pins) forced as each
    gate is evaluated.
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
        self._x = x = pack_const(X, width)
        self.v1: List[int] = [x[0]] * self.cc.num_nets
        self.v0: List[int] = [x[1]] * self.cc.num_nets
        #: source net -> stem injections, forced on every write
        self._src_stems: Dict[int, List[Injection]] = {}
        #: flip-flop position -> D-pin injections, forced at the clock edge
        self._ff_pin: Dict[int, List[Injection]] = {}
        gate_level: List[Injection] = []
        for inj in injections:
            if inj.stuck not in (0, 1):
                raise ValueError(f"stuck value must be 0/1, got {inj.stuck}")
            if inj.ff_pos is not None:
                self._ff_pin.setdefault(inj.ff_pos, []).append(inj)
            elif inj.gate_pos is None and self.cc.is_source(inj.net):
                self._src_stems.setdefault(inj.net, []).append(inj)
            else:
                gate_level.append(inj)
        #: source net with a transition stem -> the slots it delays.  The
        #: net stores the forced value, so the raw (applied or latched)
        #: value is kept beside it, with its value in the previous frame
        self._src_tmask: Dict[int, int] = {
            idx: tmask for idx, injs in self._src_stems.items()
            if (tmask := _transition_mask(injs))
        }
        self._src_raw: Dict[int, PackedValue] = dict.fromkeys(self._src_tmask, x)
        self._src_prev: Dict[int, PackedValue] = dict.fromkeys(self._src_tmask, x)
        #: D pin with a transition injection -> its value at the last edge
        self._ff_prev: Dict[int, PackedValue] = {
            pos: x for pos, injs in self._ff_pin.items() if _transition_mask(injs)
        }
        self._init_gates(gate_level)
        self.reset()

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every net (including flip-flop state) to all-X."""
        x = self._x
        self.v1[:] = [x[0]] * self.cc.num_nets
        self.v0[:] = [x[1]] * self.cc.num_nets
        for table in (self._src_prev, self._ff_prev):
            for key in table:
                table[key] = x
        self._reset_gates()
        # forces every source stem, and sets each raw value to X
        self._write_sources([(idx, x) for idx in self._src_stems])

    def set_state(self, values: "Dict[str, PackedValue] | Sequence[PackedValue]") -> None:
        """Set flip-flop output values (packed), by name map or FF order."""
        if isinstance(values, dict):
            index = self.cc.index
            self._write_sources([(index[name], val) for name, val in values.items()])
        else:
            self._write_sources(zip(self.cc.ff_out, values))

    def get_state(self) -> List[PackedValue]:
        """Current flip-flop output values, in flip-flop order.

        A transition stem on a flip-flop output stores the *forced*
        (delay-combined) value on the net; the latch itself holds the raw
        value.  Carrying the forced value forward would re-apply the delay
        in the next run, so those slots report the raw value instead —
        restoring via :meth:`set_state` re-forces from it.
        """
        v1, v0 = self.v1, self.v0
        state = [(v1[i], v0[i]) for i in self.cc.ff_out]
        if self._src_raw:
            for pos, idx in enumerate(self.cc.ff_out):
                if idx in self._src_raw:
                    state[pos] = _blend(
                        state[pos], self._src_raw[idx], self._src_tmask[idx]
                    )
        return state

    def read(self, net: str) -> PackedValue:
        """Packed value of a net by name."""
        self.settle()
        i = self.cc.index[net]
        return self.v1[i], self.v0[i]

    def read_outputs(self) -> List[PackedValue]:
        """Primary output values, in declaration order."""
        self.settle()
        return [(self.v1[i], self.v0[i]) for i in self.cc.po]

    def read_next_state(self) -> List[PackedValue]:
        """Values currently at the flip-flop D inputs (next state)."""
        self.settle()
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
        outputs = self.read_outputs()
        self.clock()
        return outputs

    def apply_inputs(
        self, vector: "Dict[str, PackedValue] | Sequence[PackedValue]"
    ) -> None:
        """Drive primary inputs (no propagation yet)."""
        if isinstance(vector, dict):
            index = self.cc.index
            self._write_sources([(index[name], val) for name, val in vector.items()])
        else:
            self._write_sources(zip(self.cc.pi, vector))

    def clock(self) -> None:
        """Latch the D-input values into the flip-flop outputs.

        The clock edge is the frame boundary: D-pin injections force the
        latched values, and every transition site rolls its previous-frame
        raw value over.  The new state is written, not propagated; the
        next read settles it together with the next frame's inputs.
        """
        self.settle()  # D values must be stable before the edge
        v1, v0 = self.v1, self.v0
        # read every D value before writing any output: a flip-flop may
        # feed another flip-flop's D pin directly
        state = [(v1[i], v0[i]) for i in self.cc.ff_in]
        for pos, injs in self._ff_pin.items():
            raw = state[pos]
            state[pos] = _force(raw, injs, self._ff_prev.get(pos))
            if pos in self._ff_prev:
                self._ff_prev[pos] = raw
        self._src_prev.update(self._src_raw)
        self._roll()
        # a transition-forced source changes with its previous value even
        # when its raw value holds, so every one is written again
        self._write_sources([*self._src_raw.items(), *zip(self.cc.ff_out, state)])

    def _write_sources(self, items: Iterable) -> None:
        """Write ``(net, value)`` pairs to sources, forcing their stems."""
        v1, v0, mask = self.v1, self.v0, self.mask
        stems, raws, prevs = self._src_stems, self._src_raw, self._src_prev
        changed = []
        for idx, (p1, p0) in items:
            p1 &= mask
            p0 &= mask
            injs = stems.get(idx)
            if injs:
                if idx in raws:
                    raws[idx] = p1, p0
                p1, p0 = _force((p1, p0), injs, prevs.get(idx))
            if p1 != v1[idx] or p0 != v0[idx]:
                v1[idx] = p1
                v0[idx] = p0
                changed.append(idx)
        if changed:
            self._changed(changed)

    # ------------------------------------------------------------------
    # how the gates settle: the event backend's hooks
    # ------------------------------------------------------------------
    def _init_gates(self, injections: List[Injection]) -> None:
        """Take the gate-level injections: gate-output stems and pins."""
        cc = self.cc
        #: gate-output net -> stem injections on it
        self._stems: Dict[int, List[Injection]] = {}
        #: gate position -> input pin -> injections on that pin
        self._pin: Dict[int, Dict[int, List[Injection]]] = {}
        for inj in injections:
            if inj.gate_pos is None:
                self._stems.setdefault(inj.net, []).append(inj)
            else:
                pins = self._pin.setdefault(inj.gate_pos, {})
                pins.setdefault(inj.pin, []).append(inj)
        #: transition sites (a gate-output net, or a (gate position, pin)
        #: pair) -> raw value in the previous frame and in this one
        self._tprev: Dict = {}
        self._tcur: Dict = {}
        #: gates whose forced value moves when the previous values roll
        self._wake: List[int] = []
        for net, injs in self._stems.items():
            if _transition_mask(injs):
                self._tprev[net] = self._tcur[net] = self._x
                self._wake.append(cc.gate_of[net])
        for pos, pins in self._pin.items():
            for pin, injs in pins.items():
                if _transition_mask(injs):
                    self._tprev[pos, pin] = self._tcur[pos, pin] = self._x
                    if pos not in self._wake:
                        self._wake.append(pos)
        self._pending: List[set] = [set() for _ in range(cc.num_levels + 1)]

    def _reset_gates(self) -> None:
        """Forget the gate-level state: every gate is stale."""
        for key in self._tprev:
            self._tprev[key] = self._tcur[key] = self._x
        self._schedule(range(len(self.cc.gates)))

    def _changed(self, nets: List[int]) -> None:
        """Sources ``nets`` changed value: schedule their readers."""
        fanout = self.cc.fanout_gates
        for idx in nets:
            self._schedule(fanout[idx])

    def _roll(self) -> None:
        """Roll the gate-level transition sites over the clock edge."""
        if self._tprev:
            self._tprev.update(self._tcur)
            self._schedule(self._wake)

    def _schedule(self, positions: Iterable[int]) -> None:
        gates, pending = self.cc.gates, self._pending
        for pos in positions:
            pending[gates[pos].level].add(pos)

    def settle(self) -> None:
        """Propagate pending events through the combinational logic."""
        gates = self.cc.gates
        v1, v0 = self.v1, self.v0
        mask = self.mask
        pin = self._pin
        stems = self._stems
        tprev, tcur = self._tprev, self._tcur
        fanout = self.cc.fanout_gates
        pending = self._pending
        for level_bucket in pending:
            while level_bucket:
                pos = level_bucket.pop()
                gate = gates[pos]
                if pos in pin:
                    f1, f0 = self._pin_view(pos, gate.fanin)
                    p1, p0 = _eval_ints(gate.code, range(len(f1)), f1, f0, mask)
                else:
                    p1, p0 = _eval_ints(gate.code, gate.fanin, v1, v0, mask)
                out = gate.out
                injs = stems.get(out)
                if injs:
                    if out in tcur:
                        tcur[out] = p1, p0
                    p1, p0 = _force((p1, p0), injs, tprev.get(out))
                if p1 != v1[out] or p0 != v0[out]:
                    v1[out] = p1
                    v0[out] = p0
                    for fpos in fanout[out]:
                        pending[gates[fpos].level].add(fpos)

    def _pin_view(self, pos: int, fanin) -> Tuple[List[int], List[int]]:
        """The gate's input words as it sees them, pin injections forced."""
        v1, v0 = self.v1, self.v0
        f1 = [v1[i] for i in fanin]
        f0 = [v0[i] for i in fanin]
        for pin, injs in self._pin[pos].items():
            raw = f1[pin], f0[pin]
            key = (pos, pin)
            if key in self._tcur:
                self._tcur[key] = raw
            f1[pin], f0[pin] = _force(raw, injs, self._tprev.get(key))
        return f1, f0


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
