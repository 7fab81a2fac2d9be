"""Scan-based test generation (the combinational flow full scan enables).

With a scan chain inserted, sequential ATPG collapses to a combinational
problem per fault: choose any flip-flop state (it can be shifted in),
choose one primary-input vector, and observe fault effects either at the
primary outputs of the capture cycle or in the captured next state (it
can be shifted out).  Each generated test is the classic scan protocol::

    load:    chain-length shift cycles  (scan_enable=1, state enters)
    capture: one functional cycle       (scan_enable per the pattern)
    unload:  chain-length shift cycles  (captured state reaches scan_out)

The generator targets the *scanned* netlist's complete fault list — scan
cells included — validates every assembled sequence with the fault
simulator, and reports the same :class:`~repro.hybrid.results.RunResult`
records as the other generators, so the scan-versus-sequential trade-off
benchmarks read directly off the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..clock import monotonic
from ..circuit.scan import ScanChain, insert_scan, scan_load_sequence
from ..faults.collapse import collapse_faults
from ..faults.model import Fault
from ..hybrid.results import PassStats, RunResult
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.encoding import X
from ..simulation.fault_sim import FaultSimulator, GradedTestSet
from .podem import Limits, PodemEngine, SearchStatus


@dataclass
class ScanAtpgParams:
    """Budgets for the scan flow.

    Attributes:
        max_backtracks: PODEM budget per fault.
        time_limit: overall wall-clock budget in seconds (None = none).
    """

    max_backtracks: int = 1000
    time_limit: Optional[float] = None


class ScanTestGenerator:
    """Combinational-style ATPG over a full-scan version of a circuit.

    Args:
        circuit: the *original* (unscanned) circuit; the generator inserts
            the chain itself and exposes it as :attr:`scanned` /
            :attr:`chain`.
        width: fault-simulation word width.
    """

    def __init__(self, circuit: Circuit, width: int = 64):
        self.original = circuit
        self.scanned, self.chain = insert_scan(circuit)
        self.cc: CompiledCircuit = compile_circuit(self.scanned)
        self.sim = FaultSimulator(self.cc, width=width)
        self.n_pi_orig = len(circuit.inputs)

    # ------------------------------------------------------------------
    def run(
        self,
        params: Optional[ScanAtpgParams] = None,
        faults: Optional[Sequence[Fault]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> RunResult:
        """Generate scan tests for every fault of the scanned netlist."""
        params = params or ScanAtpgParams()
        tick = clock or monotonic
        start = tick()
        tests = GradedTestSet(
            self.sim,
            faults if faults is not None else collapse_faults(self.scanned),
        )
        result = RunResult(
            circuit_name=self.scanned.name,
            generator="SCAN",
            total_faults=len(tests.remaining),
        )
        untestable: List[Fault] = []
        aborted = 0
        targeted = 0

        deadline = (
            start + params.time_limit if params.time_limit is not None else None
        )
        for fault in list(tests.remaining):
            if fault in tests.detected:
                continue
            if deadline and tick() >= deadline:
                break
            targeted += 1
            sequence, proof = self._target(fault, params, deadline, tick)
            if proof:
                untestable.append(fault)
                tests.remaining.remove(fault)
                continue
            if sequence is None or not tests.apply(
                sequence, keep=lambda d: fault in d
            ):
                aborted += 1

        result.passes.append(
            PassStats(
                number=1,
                approach="scan",
                detected=len(tests.detected),
                vectors=len(tests.vectors),
                time_s=tick() - start,
                untestable=len(untestable),
                targeted=targeted,
                aborted=aborted,
            )
        )
        result.test_set = tests.vectors
        result.detected = tests.detected
        result.untestable = untestable
        result.blocks = tests.blocks
        return result

    # ------------------------------------------------------------------
    def _target(self, fault: Fault, params: ScanAtpgParams, deadline, tick):
        """One scan test (load + capture + unload), or an untestable proof."""
        engine = PodemEngine(self.cc, fault=fault, num_frames=1, observe_ppo=True)
        limits = Limits(max_backtracks=params.max_backtracks,
                        deadline=deadline, clock=tick)
        sol = engine.run(limits)
        if sol is None:
            if engine.status is SearchStatus.EXHAUSTED and not engine.window_hit:
                return None, True  # combinationally untestable, even with scan
            return None, False

        load = scan_load_sequence(
            self.chain, sol.required_state, self.n_pi_orig
        )
        capture = [0 if v == X else v for v in sol.vectors[0]]
        unload = [
            [0] * self.n_pi_orig + [1, 0] for _ in range(self.chain.length)
        ]
        return load + [capture] + unload, False
