"""Bit-parallel three-valued logic and fault simulation."""

from .encoding import (
    PackedValue,
    X,
    diff_mask,
    eval3,
    eval_packed,
    full_mask,
    get_slot,
    known_mask,
    match_mask,
    pack,
    pack_const,
    popcount,
    set_slot,
    unpack,
)
from .compiled import CompiledCircuit, CompiledGate, compile_circuit
from .logic_sim import (
    FrameSimulator,
    Injection,
    make_simulator,
    register_backend,
    resolve_backend,
    simulate_sequence,
)
from .codegen import CodegenFrameSimulator, generate_kernel_source, kernel_for
from . import kernel_cache
from .fault_sim import (
    FaultSimResult,
    FaultSimulator,
    GradedTestSet,
    Vector,
    fault_coverage,
    injection_for,
)

__all__ = [
    "CodegenFrameSimulator",
    "kernel_cache",
    "CompiledCircuit",
    "CompiledGate",
    "FaultSimResult",
    "FaultSimulator",
    "FrameSimulator",
    "GradedTestSet",
    "Injection",
    "PackedValue",
    "Vector",
    "X",
    "compile_circuit",
    "diff_mask",
    "eval3",
    "eval_packed",
    "fault_coverage",
    "full_mask",
    "generate_kernel_source",
    "get_slot",
    "injection_for",
    "kernel_for",
    "known_mask",
    "make_simulator",
    "match_mask",
    "pack",
    "pack_const",
    "popcount",
    "register_backend",
    "resolve_backend",
    "set_slot",
    "simulate_sequence",
    "unpack",
]
