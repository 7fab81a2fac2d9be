"""Result records for multi-pass test generation runs.

Mirrors the paper's Table II/III columns: after each pass we record the
cumulative number of detected faults (**Det**), generated test vectors
(**Vec**), elapsed time (**Time**), and identified untestable faults
(**Unt**), plus reproduction-only diagnostics (per-pass new detections
and justification outcomes).  The Figure-1 flow counters live on each
fault's :class:`~repro.atpg.hitec.TestGenResult` and in the ``atpg.*``
telemetry counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults.model import Fault
from ..telemetry import RunReport


@dataclass
class PassStats:
    """Cumulative statistics at the end of one pass (one table row).

    Attributes:
        number: 1-based pass number.
        approach: ``"ga"`` or ``"deterministic"``.
        detected: cumulative faults detected (Det).
        vectors: cumulative test vectors generated (Vec).
        time_s: cumulative wall-clock seconds (Time).
        untestable: cumulative untestable faults identified (Unt).
        targeted: faults targeted during this pass.
        detected_new: faults newly detected during this pass (targeted or
            incidental).
        aborted: faults targeted but neither detected nor proven untestable.
        ga_justified / det_justified: successful justifications by kind.
        validation_failures: candidate sequences the fault simulator
            rejected (generated test did not actually detect its target).
    """

    number: int
    approach: str
    detected: int = 0
    vectors: int = 0
    time_s: float = 0.0
    untestable: int = 0
    targeted: int = 0
    detected_new: int = 0
    aborted: int = 0
    ga_justified: int = 0
    det_justified: int = 0
    validation_failures: int = 0

    def row(self) -> str:
        """Format as a paper-style table row fragment."""
        return (
            f"{self.detected:>7d} {self.vectors:>6d} "
            f"{format_time(self.time_s):>8s} {self.untestable:>5d}"
        )


@dataclass
class RunResult:
    """Complete outcome of a multi-pass run on one circuit.

    Attributes:
        circuit_name: name of the circuit under test.
        generator: ``"GA-HITEC"`` or ``"HITEC"``.
        total_faults: size of the (collapsed) target fault list.
        passes: one :class:`PassStats` per completed pass.
        test_set: every generated test vector (scalars in PI order).
        detected: faults detected, mapped to the index of the test vector
            block that caught them (-1 when unknown).
        untestable: faults proven untestable.
        blocks: starting offset in ``test_set`` of each accepted test
            sequence, in emission order (useful for compaction and for
            checking per-sequence constraints).
        report: structured telemetry report for the campaign (per-pass and
            per-fault detail, metrics snapshot, total wall/CPU time).
        deadline_expired: the run stopped early because the driver's
            wall-clock deadline passed (campaign per-item timeouts);
            committed tests and detections up to that point are kept.
        knowledge_stats: cross-fault state-knowledge effectiveness
            counters for this run (empty when knowledge reuse is off).
    """

    circuit_name: str
    generator: str
    total_faults: int
    passes: List[PassStats] = field(default_factory=list)
    test_set: List[List[int]] = field(default_factory=list)
    detected: Dict[Fault, int] = field(default_factory=dict)
    untestable: List[Fault] = field(default_factory=list)
    blocks: List[int] = field(default_factory=list)
    report: Optional[RunReport] = None
    deadline_expired: bool = False
    knowledge_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def fault_coverage(self) -> float:
        """Detected fraction of the target fault list."""
        if not self.total_faults:
            return 0.0
        return len(self.detected) / self.total_faults

    def summary(self) -> str:
        """Multi-line, paper-style result block for this circuit."""
        lines = [
            f"{self.circuit_name} ({self.generator}): "
            f"{self.total_faults} faults"
        ]
        for p in self.passes:
            lines.append(f"  pass {p.number} [{p.approach:>13s}] {p.row()}")
        lines.append(
            f"  coverage {100.0 * self.fault_coverage:.1f}%  "
            f"vectors {len(self.test_set)}  untestable {len(self.untestable)}"
        )
        return "\n".join(lines)


def format_time(seconds: float) -> str:
    """Render seconds the way the paper does (49.5s / 5.96m / 2.39h)."""
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    if seconds < 3600.0:
        return f"{seconds / 60.0:.2f}m"
    return f"{seconds / 3600.0:.2f}h"
