"""Shared test utilities: reference simulation and bus-level driving."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.logic_sim import FrameSimulator


def reference_step(
    circuit: Circuit,
    state: Dict[str, int],
    vector: Dict[str, int],
) -> "tuple[Dict[str, int], Dict[str, int]]":
    """One frame of dead-simple interpretive 3-valued simulation.

    An independent oracle for the production simulator: no events, no
    packing — evaluate every net by recursive descent with memoisation.

    Args:
        circuit: circuit to simulate.
        state: flip-flop output values before the frame (0/1/X scalars).
        vector: primary input values (0/1/X scalars).

    Returns:
        ``(po_values, next_state)`` as name->scalar dicts.
    """
    values: Dict[str, int] = {}

    def evaluate(net: str) -> int:
        if net in values:
            return values[net]
        if net in vector:
            values[net] = vector[net]
            return values[net]
        gate = circuit.gates[net]
        if gate.gtype is GateType.DFF:
            values[net] = state.get(net, X)
            return values[net]
        ins = [evaluate(src) for src in gate.inputs]
        values[net] = _eval3_scalar(gate.gtype, ins)
        return values[net]

    po = {net: evaluate(net) for net in circuit.outputs}
    nxt = {ff: evaluate(circuit.gates[ff].inputs[0]) for ff in circuit.flops}
    return po, nxt


def _eval3_scalar(gtype: GateType, ins: List[int]) -> int:
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return X if ins[0] == X else 1 - ins[0]
    if gtype in (GateType.AND, GateType.NAND):
        if 0 in ins:
            v = 0
        elif X in ins:
            v = X
        else:
            v = 1
        return v if gtype is GateType.AND else (X if v == X else 1 - v)
    if gtype in (GateType.OR, GateType.NOR):
        if 1 in ins:
            v = 1
        elif X in ins:
            v = X
        else:
            v = 0
        return v if gtype is GateType.OR else (X if v == X else 1 - v)
    if gtype in (GateType.XOR, GateType.XNOR):
        if X in ins:
            return X
        v = sum(ins) & 1
        return v if gtype is GateType.XOR else 1 - v
    raise ValueError(gtype)


def reference_sequence(
    circuit: Circuit,
    vectors: Sequence[Dict[str, int]],
    initial_state: Optional[Dict[str, int]] = None,
) -> List[Dict[str, int]]:
    """Reference simulation of a whole sequence from a given state."""
    state = dict(initial_state or {})
    outputs = []
    for vec in vectors:
        po, state = reference_step(circuit, state, vec)
        outputs.append(po)
    return outputs


def mutant_circuit(circuit: Circuit, fault: Fault) -> Circuit:
    """The faulty machine of ``fault`` as a fault-free netlist.

    An independent oracle for fault injection, simulated with
    :func:`reference_sequence`.  The site's readers (every reader of a
    stem, one gate's or one flip-flop's pin for a branch) read a new net
    ``mutant_site`` instead: a constant for stuck-at; for a transition,
    the AND (slow-to-rise) or OR (slow-to-fall) of the site and a new
    flip-flop ``mutant_prev`` holding its previous-frame value, which
    starts at X like every flip-flop.  Outputs keep their positions.
    """
    site = "mutant_site"
    mutant = Circuit(f"{circuit.name}_mutant")
    for net in circuit.inputs:
        mutant.add_input(net)
    if fault.model == "stuck_at":
        tie = GateType.CONST1 if fault.stuck else GateType.CONST0
        mutant.add_gate(site, tie)
    else:
        mutant.add_gate("mutant_prev", GateType.DFF, [fault.net])
        combine = GateType.OR if fault.stuck else GateType.AND
        mutant.add_gate(site, combine, [fault.net, "mutant_prev"])
    for name, gate in circuit.gates.items():
        ins = list(gate.inputs)
        if not fault.is_branch:
            ins = [site if net == fault.net else net for net in ins]
        elif name == fault.gate:
            ins[fault.pin] = site
        mutant.add_gate(name, gate.gtype, ins)
    for net in circuit.outputs:
        stem = net == fault.net and not fault.is_branch
        mutant.add_output(site if stem else net)
    return mutant


# ----------------------------------------------------------------------
# bus-level driving of the production simulator (scalars, width 1)
# ----------------------------------------------------------------------
def bus_nets(circuit: Circuit, prefix: str, from_outputs: bool = False) -> List[str]:
    """Nets named ``prefix_0 .. prefix_{n-1}`` (or exactly ``prefix``)."""
    pool = circuit.outputs if from_outputs else circuit.inputs
    if prefix in pool:
        return [prefix]
    nets = [n for n in pool if n.startswith(prefix)]
    suffix = lambda n: n[len(prefix):].lstrip("_q").lstrip("_")
    return sorted(nets, key=lambda n: int("".join(ch for ch in suffix(n) if ch.isdigit()) or 0))


def drive(sim: FrameSimulator, circuit: Circuit, **fields: int) -> Dict[str, int]:
    """Apply one frame with named scalar bus values.

    Returns the frame's primary-output scalars (the values *before* the
    clock edge — what a tester would strobe), keyed by PO net name.
    """
    vec = {}
    for name, value in fields.items():
        nets = [n for n in circuit.inputs if n == name or n.startswith(f"{name}_")]
        if nets == [name]:
            vec[name] = pack_const(value & 1, 1)
        else:
            nets.sort(key=lambda n: int(n.rsplit("_", 1)[1]))
            for i, net in enumerate(nets):
                vec[net] = pack_const((value >> i) & 1, 1)
    po = sim.step(vec)
    return {
        net: unpack(v, 1)[0] for net, v in zip(circuit.outputs, po)
    }


def frame_bus(outputs: Dict[str, int], nets: Sequence[str]) -> Optional[int]:
    """Read a little-endian bus out of one frame's PO scalars."""
    value = 0
    for i, net in enumerate(nets):
        bit = outputs[net]
        if bit == X:
            return None
        value |= bit << i
    return value


def read_bus(sim: FrameSimulator, nets: Sequence[str]) -> Optional[int]:
    """Read a little-endian bus of nets; None when any bit is X."""
    value = 0
    for i, net in enumerate(nets):
        bit = unpack(sim.read(net), 1)[0]
        if bit == X:
            return None
        value |= bit << i
    return value


def read_bit(sim: FrameSimulator, net: str) -> int:
    """Read one net's scalar value (may be X)."""
    return unpack(sim.read(net), 1)[0]
