"""Fault-coverage accounting and baselines.

Utilities the examples and benchmarks share: evaluate a test set against
a fault list, compare against a random-vector baseline, and summarise
per-fault outcomes the way ATPG papers report them (detected / untestable
/ aborted, fault coverage, and ATPG efficiency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..simulation.fault_sim import FaultSimulator


@dataclass
class CoverageReport:
    """Outcome of evaluating one test set.

    Attributes:
        total_faults: faults evaluated.
        detected: faults the test set detects, with first-detection frame.
        vectors: number of test vectors evaluated.
    """

    total_faults: int
    detected: Dict[Fault, int] = field(default_factory=dict)
    vectors: int = 0

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault list (0..1)."""
        return len(self.detected) / self.total_faults if self.total_faults else 0.0

    @property
    def undetected(self) -> int:
        return self.total_faults - len(self.detected)

    def __str__(self) -> str:
        return (
            f"{len(self.detected)}/{self.total_faults} faults "
            f"({100.0 * self.coverage:.1f}%) with {self.vectors} vectors"
        )


def evaluate_test_set(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    width: int = 64,
    fault_model: str = "stuck_at",
) -> CoverageReport:
    """Fault-simulate ``vectors`` from the all-X state and report coverage.

    ``fault_model`` picks the default fault universe (ignored when an
    explicit ``faults`` list is given, which may mix models freely).
    """
    fault_list = (
        list(faults)
        if faults is not None
        else collapse_faults(circuit, fault_model)
    )
    sim = FaultSimulator(circuit, width=width)
    result = sim.run(vectors, fault_list)
    return CoverageReport(
        total_faults=len(fault_list),
        detected=dict(result.detected),
        vectors=len(vectors),
    )


def random_vectors(
    circuit: Circuit, count: int, seed: int = 0
) -> List[List[int]]:
    """A reproducible random test sequence (scalars in PI order)."""
    rng = random.Random(seed)
    n = len(circuit.inputs)
    return [[rng.getrandbits(1) for _ in range(n)] for _ in range(count)]


def random_baseline(
    circuit: Circuit,
    count: int,
    faults: Optional[Sequence[Fault]] = None,
    seed: int = 0,
    width: int = 64,
) -> CoverageReport:
    """Coverage of ``count`` random vectors — the weakest sensible baseline."""
    return evaluate_test_set(
        circuit, random_vectors(circuit, count, seed), faults, width
    )


def atpg_efficiency(
    detected: int, untestable: int, total: int
) -> float:
    """ATPG efficiency: classified faults / total (detected + proven)."""
    return (detected + untestable) / total if total else 0.0
