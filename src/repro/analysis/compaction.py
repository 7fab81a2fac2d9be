"""Static test-set compaction for sequential test sets.

ATPG output is redundant: sequences generated late in a run often detect
faults that earlier sequences already covered, and the fault simulator's
incidental-detection credit means some whole sequences contribute nothing
once the rest of the test set exists.  Vector-by-vector pruning is unsound
for sequential circuits (dropping one vector shifts every later state), so
compaction works at *sequence* granularity: the test set is split into the
blocks the generator emitted, and blocks are removed greedily — in reverse
order of insertion, the classic heuristic — whenever removal does not
reduce fault coverage of the whole remaining set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..simulation.fault_sim import FaultSimulator, split_blocks


@dataclass
class CompactionResult:
    """Outcome of :func:`compact_test_set`.

    Attributes:
        vectors: the compacted test set (flat vector list).
        kept_blocks: indices of the retained blocks, in original order.
        original_vectors / compacted_vectors: sizes before and after.
        coverage: number of faults the compacted set detects.
    """

    vectors: List[List[int]]
    kept_blocks: List[int]
    original_vectors: int
    compacted_vectors: int
    coverage: int

    @property
    def reduction(self) -> float:
        """Fraction of vectors removed (0..1)."""
        if not self.original_vectors:
            return 0.0
        return 1.0 - self.compacted_vectors / self.original_vectors


def compact_test_set(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    block_bases: Sequence[int],
    faults: Optional[Sequence[Fault]] = None,
    width: int = 64,
) -> CompactionResult:
    """Drop test-sequence blocks that no longer contribute coverage.

    Args:
        circuit: circuit under test.
        vectors: the full generated test set.
        block_bases: starting offsets of each generated sequence
            (``RunResult.blocks``).
        faults: fault list to preserve coverage against (defaults to the
            collapsed universe).
        width: fault-simulation word width.
    """
    fault_list = list(faults) if faults is not None else collapse_faults(circuit)
    sim = FaultSimulator(circuit, width=width)
    blocks = split_blocks(vectors, block_bases)

    def coverage_of(selected: Sequence[int]) -> int:
        flat: List[List[int]] = []
        for i in selected:
            flat.extend(blocks[i])
        if not flat:
            return 0
        return len(sim.run(flat, fault_list).detected)

    kept = list(range(len(blocks)))
    target = coverage_of(kept)
    # reverse order: late blocks usually mop up few extra faults
    for i in reversed(range(len(blocks))):
        trial = [j for j in kept if j != i]
        if coverage_of(trial) >= target:
            kept = trial

    flat: List[List[int]] = []
    for i in kept:
        flat.extend(blocks[i])
    return CompactionResult(
        vectors=flat,
        kept_blocks=kept,
        original_vectors=len(vectors),
        compacted_vectors=len(flat),
        coverage=target,
    )
