"""SCOAP-style testability measures used to guide PODEM.

Combinational 0/1-controllabilities (CC0/CC1) and observabilities (CO) in
the classic Goldstein formulation, with two sequential adaptations:

* flip-flop outputs (pseudo primary inputs) get a fixed, deliberately high
  controllability :data:`PPI_COST`, biasing the backtrace toward primary
  inputs so deterministic search leaves as few state requirements as
  possible for the justifier;
* flip-flop D inputs (pseudo primary outputs) get observability
  :data:`PPO_COST`, biasing D-drive toward real primary outputs.

These are heuristics — any finite values keep PODEM correct; the numbers
only shape the search order.  The measures depend on the circuit alone,
so :func:`cached_testability` computes them once per compiled circuit and
every search, policy feature and plan reads that one shared object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuit.gates import GateType
from ..simulation.compiled import CompiledCircuit

#: A large-but-finite stand-in for "very hard"; avoids float('inf') sums.
HARD = 1 << 20

#: Controllability charged for using a flip-flop output.
PPI_COST = 50

#: Observability charged for driving a fault effect into a flip-flop D
#: input instead of a primary output.
PPO_COST = 30


@dataclass(frozen=True)
class Testability:
    """Per-net controllability/observability estimates (index-addressed).

    Shared by every reader of one compiled circuit, so it is immutable.

    Attributes:
        cc0: cost of setting each net to 0.
        cc1: cost of setting each net to 1.
        co: cost of observing each net at a primary output.
    """

    cc0: Tuple[int, ...]
    cc1: Tuple[int, ...]
    co: Tuple[int, ...]

    def cc(self, idx: int, value: int) -> int:
        """Controllability of ``value`` (0 or 1) on net ``idx``."""
        return self.cc1[idx] if value == 1 else self.cc0[idx]


def cached_testability(cc: CompiledCircuit) -> Testability:
    """The circuit's SCOAP measures, computed on first use and cached on
    ``cc``; racing builds are equal."""
    facts = vars(cc)
    if "_testability" not in facts:
        facts.setdefault("_testability", compute_testability(cc))
    return facts["_testability"]


def compute_testability(cc: CompiledCircuit) -> Testability:
    """Compute SCOAP-lite measures for a compiled circuit (uncached)."""
    n = cc.num_nets
    cc0 = [HARD] * n
    cc1 = [HARD] * n
    for i in cc.pi:
        cc0[i] = cc1[i] = 1
    for i in cc.ff_out:
        cc0[i] = cc1[i] = PPI_COST

    for gate in cc.gates:  # already in level order
        ins0 = [cc0[i] for i in gate.fanin]
        ins1 = [cc1[i] for i in gate.fanin]
        t = gate.gtype
        if t is GateType.CONST0:
            c0, c1 = 0, HARD
        elif t is GateType.CONST1:
            c0, c1 = HARD, 0
        elif t is GateType.BUF:
            c0, c1 = ins0[0] + 1, ins1[0] + 1
        elif t is GateType.NOT:
            c0, c1 = ins1[0] + 1, ins0[0] + 1
        elif t is GateType.AND:
            c0, c1 = min(ins0) + 1, sum(ins1) + 1
        elif t is GateType.NAND:
            c0, c1 = sum(ins1) + 1, min(ins0) + 1
        elif t is GateType.OR:
            c0, c1 = sum(ins0) + 1, min(ins1) + 1
        elif t is GateType.NOR:
            c0, c1 = min(ins1) + 1, sum(ins0) + 1
        elif t in (GateType.XOR, GateType.XNOR):
            # two-way parity fold: cheapest way to reach even/odd parity
            c_even, c_odd = ins0[0], ins1[0]
            for a0, a1 in zip(ins0[1:], ins1[1:]):
                c_even, c_odd = min(c_even + a0, c_odd + a1), min(
                    c_even + a1, c_odd + a0
                )
            if t is GateType.XOR:
                c0, c1 = c_even + 1, c_odd + 1
            else:
                c0, c1 = c_odd + 1, c_even + 1
        else:  # pragma: no cover - DFFs never appear in cc.gates
            raise ValueError(f"unexpected gate type {t}")
        cc0[gate.out] = min(cc0[gate.out], c0, HARD)
        cc1[gate.out] = min(cc1[gate.out], c1, HARD)

    co = [HARD] * n
    for i in cc.po:
        co[i] = 0
    for i in cc.ff_in:
        co[i] = min(co[i], PPO_COST)
    for gate in reversed(cc.gates):
        out_co = co[gate.out]
        if out_co >= HARD:
            continue  # unobservable output: inputs gain nothing through it
        t = gate.gtype
        for pin, src in enumerate(gate.fanin):
            if t in (GateType.BUF, GateType.NOT):
                cost = out_co + 1
            elif t in (GateType.AND, GateType.NAND):
                cost = out_co + 1 + sum(
                    cc1[s] for j, s in enumerate(gate.fanin) if j != pin
                )
            elif t in (GateType.OR, GateType.NOR):
                cost = out_co + 1 + sum(
                    cc0[s] for j, s in enumerate(gate.fanin) if j != pin
                )
            elif t in (GateType.XOR, GateType.XNOR):
                cost = out_co + 1 + sum(
                    min(cc0[s], cc1[s])
                    for j, s in enumerate(gate.fanin)
                    if j != pin
                )
            else:  # pragma: no cover
                raise ValueError(f"unexpected gate type {t}")
            co[src] = min(co[src], cost)

    return Testability(cc0=tuple(cc0), cc1=tuple(cc1), co=tuple(co))
