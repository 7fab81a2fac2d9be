"""Deterministic ATPG: PODEM over unrolled time frames, HITEC-style engine."""

from .values import D, DBAR, MASK2, ONE, XX, ZERO, faulty_of, good_of, has_x, is_d, is_known, make9, show9
from .scoap import HARD, Testability, cached_testability, compute_testability
from .unrolled import UnrolledModel
from .podem import Limits, PodemEngine, SearchStatus, Solution
from .constraints import InputConstraints, UNCONSTRAINED
from .justify import JustifyResult, JustifyStatus, justify_state
from .scan_atpg import ScanAtpgParams, ScanTestGenerator
from .hitec import (
    FlowCounters,
    Justifier,
    SequentialTestGenerator,
    TestGenResult,
    TestGenStatus,
)

__all__ = [
    "D",
    "DBAR",
    "FlowCounters",
    "HARD",
    "InputConstraints",
    "Justifier",
    "JustifyResult",
    "JustifyStatus",
    "Limits",
    "MASK2",
    "ONE",
    "PodemEngine",
    "SearchStatus",
    "ScanAtpgParams",
    "ScanTestGenerator",
    "SequentialTestGenerator",
    "Solution",
    "Testability",
    "UNCONSTRAINED",
    "TestGenResult",
    "TestGenStatus",
    "UnrolledModel",
    "XX",
    "ZERO",
    "cached_testability",
    "compute_testability",
    "faulty_of",
    "good_of",
    "has_x",
    "is_d",
    "is_known",
    "justify_state",
    "make9",
    "show9",
]
