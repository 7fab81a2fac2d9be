"""The good machine's reachable states, found by breadth-first search.

From the all-X power-up state, every binary input vector is applied to
every state found so far, under three-valued fault-free simulation, until
no new state appears.  A required state cube that no reachable state
matches exactly on every cared flip-flop can never be justified from
power-up, nor from any start state that is itself reachable.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..simulation.compiled import CompiledCircuit
from ..simulation.encoding import X, PackedValue
from ..simulation.logic_sim import FrameSimulator

#: Most (state, input vector) slots one search simulates in total; past
#: it the set is unknown and callers search as if it were not there.
SLOT_BUDGET = 1 << 16

#: A three-valued flip-flop state, in ``cc.ff_out`` order.
State = Tuple[int, ...]

#: (p1, p0) bits of one flip-flop in one slot -> its scalar value
_SCALAR = {("1", "0"): 1, ("0", "1"): 0, ("1", "1"): X}


def reachable_states(cc: CompiledCircuit) -> Optional[FrozenSet[State]]:
    """Every state reachable from all-X, or ``None`` past :data:`SLOT_BUDGET`.

    Built on first use and cached on ``cc``; racing builds are equal.
    """
    facts = vars(cc)
    if "_reachable_states" not in facts:
        facts.setdefault("_reachable_states", _search(cc))
    return facts["_reachable_states"]


def _search(cc: CompiledCircuit) -> Optional[FrozenSet[State]]:
    vectors = 1 << len(cc.pi)
    if vectors > SLOT_BUDGET:
        return None
    # one step expands a whole level: slot i * vectors + k carries
    # frontier state i under input vector k, so pin j reads bit j of k
    pins = [
        "".join(str(k >> j & 1) for k in reversed(range(vectors)))
        for j in range(len(cc.pi))
    ]
    frontier: List[State] = [(X,) * len(cc.ff_out)]
    seen = set(frontier)
    spent = 0
    while frontier:
        width = len(frontier) * vectors
        spent += width
        if spent > SLOT_BUDGET:
            return None
        sim = FrameSimulator(cc, width=width)
        sim.set_state([_spread(column, vectors) for column in zip(*frontier)])
        words = [int(pin * len(frontier), 2) for pin in pins]
        sim.step([(word, ~word & sim.mask) for word in words])
        frontier = [s for s in _read(sim.get_state(), width) if s not in seen]
        seen.update(frontier)
    return frozenset(seen)


def _spread(column: Sequence[int], vectors: int) -> PackedValue:
    """One flip-flop's value in state ``i``, over the slots of block ``i``."""
    can, cannot = "1" * vectors, "0" * vectors
    column = column[::-1]  # the last state sits in the highest slots
    return (
        int("".join(cannot if v == 0 else can for v in column), 2),
        int("".join(cannot if v == 1 else can for v in column), 2),
    )


def _read(state: Sequence[PackedValue], width: int) -> List[State]:
    """The distinct states held across ``width`` slots."""
    columns = []
    for p1, p0 in state:
        columns += [format(p1, f"0{width}b"), format(p0, f"0{width}b")]
    return [
        tuple(_SCALAR[bits[f], bits[f + 1]] for f in range(0, len(bits), 2))
        for bits in dict.fromkeys(zip(*columns))
    ]
