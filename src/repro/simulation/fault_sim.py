"""PROOFS-style parallel-fault sequential fault simulation.

Faults are packed ``width`` at a time into the bit slots of one
:class:`~repro.simulation.logic_sim.FrameSimulator`; the fault-free circuit
is simulated once per sequence.  A fault is *detected* at a frame when some
primary output holds a known value in both circuits and the values differ.

Each fault carries its own flip-flop state between calls, so the driver can
fault-simulate only the newly appended test sequence after each accepted
test instead of replaying the whole cumulative test set (the same
incremental regime PROOFS runs inside HITEC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..telemetry import NULL_RECORDER, Recorder
from . import kernel_cache
from .compiled import CompiledCircuit, compile_circuit
from .encoding import PackedValue, X, full_mask, pack_const, unpack
from .logic_sim import Injection, make_simulator, resolve_backend


def injection_for(cc: CompiledCircuit, fault: Fault, mask: int) -> Injection:
    """Translate a fault into a simulator :class:`Injection` for ``mask`` slots.

    Branch faults on combinational gates become pin injections; branch
    faults feeding a flip-flop's D pin become flip-flop latch injections
    (applied when the frame is clocked).  The fault's model rides along
    so the backend applies the matching activation condition.
    """
    net_idx = cc.index[fault.net]
    if not fault.is_branch:
        return Injection(
            net=net_idx, stuck=fault.stuck, mask=mask, model=fault.model
        )
    reader = cc.circuit.gates[fault.gate]
    if reader.gtype is GateType.DFF:
        ff_pos = cc.ff_out.index(cc.index[fault.gate])
        return Injection(
            net=net_idx, stuck=fault.stuck, mask=mask, ff_pos=ff_pos,
            model=fault.model,
        )
    gate_pos = cc.gate_of[cc.index[fault.gate]]
    return Injection(
        net=net_idx, stuck=fault.stuck, mask=mask, gate_pos=gate_pos,
        pin=fault.pin, model=fault.model,
    )

#: A test vector: scalar PI values (0/1/X) in primary-input declaration order.
Vector = Sequence[int]


@dataclass
class BlockGradeResult:
    """Outcome of grading an ordered series of test-sequence blocks.

    Attributes:
        kept: indices of blocks that detected at least one new fault (all
            blocks when redundant dropping is off).
        dropped: indices of blocks that added no new detection.
        detected: fault -> index of the block that first detected it.
        per_block_new: newly detected fault count per block, in order.
        good_state: fault-free flip-flop state after the kept blocks.
    """

    kept: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    detected: Dict[Fault, int] = field(default_factory=dict)
    per_block_new: List[int] = field(default_factory=list)
    good_state: List[int] = field(default_factory=list)


@dataclass
class FaultSimResult:
    """Outcome of fault-simulating one sequence.

    Attributes:
        detected: fault -> frame index (within this sequence) of first
            detection.
        good_state: fault-free flip-flop state after the sequence
            (scalars, flip-flop order).
        fault_states: per-surviving-fault faulty flip-flop state after the
            sequence (scalars, flip-flop order).
        good_outputs: fault-free PO scalar values per frame.
        signatures: fault -> all (frame, PO position) observation points,
            populated only when the run recorded full signatures.
    """

    detected: Dict[Fault, int] = field(default_factory=dict)
    good_state: List[int] = field(default_factory=list)
    fault_states: Dict[Fault, List[int]] = field(default_factory=dict)
    good_outputs: List[List[int]] = field(default_factory=list)
    signatures: Dict[Fault, "frozenset"] = field(default_factory=dict)


def _pack_frames(
    vectors: Sequence[Vector], width: int
) -> List[List[PackedValue]]:
    """Pre-pack a whole sequence once (three possible pairs per width)."""
    table: Dict[int, PackedValue] = {}
    frames: List[List[PackedValue]] = []
    for vec in vectors:
        row = []
        for v in vec:
            packed = table.get(v)
            if packed is None:
                packed = table[v] = pack_const(v, width)
            row.append(packed)
        frames.append(row)
    return frames


class FaultSimulator:
    """Parallel-fault simulator over a fixed circuit.

    Args:
        circuit: circuit or compiled circuit to simulate.
        width: number of faults packed per pass (word width).
        backend: frame-simulator backend (``"event"`` or ``"codegen"``);
            ``None`` defers to ``REPRO_SIM_BACKEND`` / the default.
        telemetry: metrics recorder (defaults to the shared no-op).
    """

    def __init__(
        self,
        circuit: "Circuit | CompiledCircuit",
        width: int = 64,
        backend: Optional[str] = None,
        telemetry: Optional[Recorder] = None,
    ):
        self.cc = circuit if isinstance(circuit, CompiledCircuit) else compile_circuit(circuit)
        self.width = width
        self.backend = resolve_backend(backend)
        self.telemetry = telemetry or NULL_RECORDER

    # ------------------------------------------------------------------
    def simulate_good(
        self, vectors: Sequence[Vector], state: Optional[Sequence[int]] = None
    ) -> Tuple[List[List[int]], List[int]]:
        """Fault-free simulation: per-frame PO scalars and the final state."""
        sim = make_simulator(self.cc, width=1, backend=self.backend)
        if state is not None:
            sim.set_state([pack_const(v, 1) for v in state])
        outputs: List[List[int]] = []
        for frame in _pack_frames(vectors, 1):
            po = sim.step(frame)
            outputs.append([unpack(v, 1)[0] for v in po])
        final_state = [unpack(v, 1)[0] for v in sim.get_state()]
        self.telemetry.count("sim.good_frames", len(outputs))
        return outputs, final_state

    def run(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[Fault],
        good_state: Optional[Sequence[int]] = None,
        fault_states: Optional[Dict[Fault, List[int]]] = None,
        stop_on_all_detected: bool = True,
        record_signatures: bool = False,
    ) -> FaultSimResult:
        """Fault-simulate ``vectors`` against ``faults``.

        Args:
            vectors: the test sequence (scalars in PI order, X allowed).
            faults: faults to simulate (undetected ones).
            good_state: fault-free starting state (default all-X).
            fault_states: per-fault faulty starting state (default all-X).
            stop_on_all_detected: stop a batch early once every fault in it
                is detected.
            record_signatures: additionally collect every (frame, PO
                position) observation point per fault into
                ``result.signatures`` (disables early stopping) — the raw
                material of a fault dictionary.

        Returns:
            A :class:`FaultSimResult`; ``fault_states`` holds final states
            only for faults *not* detected by this sequence.
        """
        result = FaultSimResult()
        cache0 = kernel_cache.stats_snapshot()
        with self.telemetry.span("sim.fault_sim"):
            if fault_states is None:
                fault_states = {}
            if record_signatures:
                stop_on_all_detected = False
            self.telemetry.count("sim.runs")
            self.telemetry.count("sim.faults", len(faults))
            result.good_outputs, result.good_state = self.simulate_good(
                vectors, good_state
            )
            frames = _pack_frames(vectors, self.width)
            batches = [
                list(faults[start : start + self.width])
                for start in range(0, len(faults), self.width)
            ]
            self.telemetry.count("sim.batches", len(batches))
            for batch in batches:
                self._run_batch(frames, batch, fault_states, result,
                                stop_on_all_detected, record_signatures)
        for name in ("hits", "misses", "corrupt"):
            delta = kernel_cache.CACHE_STATS[name] - cache0[name]
            if delta:
                self.telemetry.count(f"sim.kernel_cache.{name}", delta)
        return result

    # ------------------------------------------------------------------
    def grade_blocks(
        self,
        blocks: Sequence[Sequence[Vector]],
        faults: Sequence[Fault],
        drop_redundant: bool = True,
    ) -> BlockGradeResult:
        """Grade an ordered series of test-sequence blocks incrementally.

        Each block is applied from the good/faulty circuit states reached
        after the previously *kept* blocks — the same incremental regime
        the driver runs during validation, reused here so a campaign's
        merge stage can re-grade many shards' tests against the full fault
        list without replaying the cumulative set per block.  A block that
        detects no still-undetected fault is dropped (when
        ``drop_redundant``): its state changes are discarded, exactly as
        if it had never been applied.

        Args:
            blocks: test sequences in application order (each a list of
                vectors; campaign merge passes one accepted sequence per
                block).
            faults: the full fault list to grade against — typically a
                whole circuit's collapsed universe, so detections are
                credited across the shards that produced the blocks.
            drop_redundant: drop blocks that add no new detection.
        """
        result = BlockGradeResult()
        remaining: List[Fault] = list(faults)
        good_state: Optional[List[int]] = None
        fault_states: Dict[Fault, List[int]] = {}
        with self.telemetry.span("sim.grade_blocks"):
            for index, block in enumerate(blocks):
                if not block or (drop_redundant and not remaining):
                    result.dropped.append(index)
                    result.per_block_new.append(0)
                    continue
                trial = {f: list(s) for f, s in fault_states.items()}
                sim = self.run(
                    block,
                    remaining,
                    good_state=good_state,
                    fault_states=trial,
                )
                new = sim.detected
                if new or not drop_redundant:
                    result.kept.append(index)
                    good_state = sim.good_state
                    fault_states = {
                        f: s for f, s in trial.items() if f not in new
                    }
                    fault_states.update(sim.fault_states)
                    for fault in new:
                        result.detected[fault] = index
                    remaining = [f for f in remaining if f not in new]
                else:
                    result.dropped.append(index)
                result.per_block_new.append(len(new))
        result.good_state = list(good_state) if good_state else []
        self.telemetry.count("sim.blocks_graded", len(blocks))
        self.telemetry.count("sim.blocks_dropped", len(result.dropped))
        return result

    # ------------------------------------------------------------------
    def _run_batch(
        self,
        frames: List[List[PackedValue]],
        batch: List[Fault],
        fault_states: Dict[Fault, List[int]],
        result: FaultSimResult,
        stop_early: bool,
        record_signatures: bool = False,
    ) -> None:
        w = len(batch)
        mask_all = full_mask(w)
        injections = [
            injection_for(self.cc, fault, 1 << slot)
            for slot, fault in enumerate(batch)
        ]
        sim = make_simulator(self.cc, width=w, injections=injections,
                             backend=self.backend)
        # pack each flip-flop's value across the fault slots
        n_ff = len(self.cc.ff_out)
        if any(f in fault_states for f in batch):
            packed_state = []
            for ff_i in range(n_ff):
                p1 = p0 = 0
                for slot, fault in enumerate(batch):
                    v = fault_states.get(fault, [X] * n_ff)[ff_i]
                    bit = 1 << slot
                    if v == 1:
                        p1 |= bit
                    elif v == 0:
                        p0 |= bit
                    else:
                        p1 |= bit
                        p0 |= bit
                packed_state.append((p1, p0))
            sim.set_state(packed_state)

        detected_mask = 0
        frames_stepped = 0
        signatures = [set() for _ in batch] if record_signatures else None
        for frame, packed_vec in enumerate(frames):
            frames_stepped += 1
            # frames are packed once per sequence at the full word width;
            # the simulator masks them down to this batch's width
            po_vals = sim.step(packed_vec)
            good_po = result.good_outputs[frame]
            for po_pos, ((f1, f0), gv) in enumerate(zip(po_vals, good_po)):
                if gv == X:
                    continue
                if gv == 1:
                    observed = f0 & ~f1 & mask_all
                else:
                    observed = f1 & ~f0 & mask_all
                new = observed & ~detected_mask
                if new:
                    for slot in range(w):
                        if new & (1 << slot):
                            result.detected[batch[slot]] = frame
                    detected_mask |= new
                if signatures is not None and observed:
                    for slot in range(w):
                        if observed & (1 << slot):
                            signatures[slot].add((frame, po_pos))
            if stop_early and detected_mask == mask_all:
                break
        self.telemetry.count("sim.frames", frames_stepped)
        if signatures is not None:
            for slot, fault in enumerate(batch):
                result.signatures[fault] = frozenset(signatures[slot])

        final = sim.get_state()
        for slot, fault in enumerate(batch):
            if detected_mask & (1 << slot):
                fault_states.pop(fault, None)
                continue
            state = []
            for p1, p0 in final:
                bit = 1 << slot
                one = bool(p1 & bit)
                zero = bool(p0 & bit)
                state.append(X if one and zero else (1 if one else 0))
            result.fault_states[fault] = state
            fault_states[fault] = state


def fault_coverage(
    circuit: "Circuit | CompiledCircuit",
    vectors: Sequence[Vector],
    faults: Sequence[Fault],
    width: int = 64,
    backend: Optional[str] = None,
) -> float:
    """Fraction of ``faults`` detected by ``vectors`` from the all-X state."""
    if not faults:
        return 0.0
    sim = FaultSimulator(circuit, width=width, backend=backend)
    result = sim.run(vectors, faults)
    return len(result.detected) / len(faults)
