"""GA-HITEC: hybrid deterministic/genetic sequential-circuit test generation.

A from-scratch reproduction of E. M. Rudnick and J. H. Patel, *"Combining
Deterministic and Genetic Approaches for Sequential Circuit Test
Generation"*, DAC 1995.  The package provides every substrate the paper's
system needs:

* :mod:`repro.circuit` — gate-level netlists, ISCAS89 ``.bench`` I/O;
* :mod:`repro.rtl` — word-level construction ("synthesis") of circuits;
* :mod:`repro.simulation` — bit-parallel 3-valued logic simulation and a
  PROOFS-style sequential fault simulator;
* :mod:`repro.faults` — single stuck-at fault model and collapsing;
* :mod:`repro.atpg` — PODEM over unrolled time frames, deterministic
  excitation/propagation, reverse-time state justification (HITEC-style);
* :mod:`repro.ga` — the simple GA and genetic state justification;
* :mod:`repro.hybrid` — the multi-pass GA-HITEC driver and its HITEC
  baseline (the paper's Table I schedule);
* :mod:`repro.campaign` — durable, resumable, multi-process campaign
  orchestration over many circuits' fault lists;
* :mod:`repro.circuits` — benchmark circuits (embedded s27, ISCAS89
  stand-ins, and the paper's four synthesised designs);
* :mod:`repro.analysis` — coverage reports and paper-style tables.

Quickstart::

    from repro import gahitec, gahitec_schedule, s27

    driver = gahitec(s27(), seed=1)
    result = driver.run(gahitec_schedule(x=12, time_scale=None))
    print(result.summary())
"""

from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateType,
    insert_scan,
    load_bench,
    load_verilog,
    parse_bench,
    parse_verilog,
    save_bench,
    save_verilog,
    sweep,
    write_bench,
    write_verilog,
)
from .faults import Fault, collapse_faults, full_fault_list
from .simulation import (
    FaultSimulator,
    FrameSimulator,
    fault_coverage,
    make_simulator,
)
from .atpg import (
    InputConstraints,
    Limits,
    PodemEngine,
    ScanAtpgParams,
    ScanTestGenerator,
    SequentialTestGenerator,
    TestGenStatus,
    justify_state,
)
from .ga import (
    GAAtpgParams,
    GAJustifyParams,
    GAParams,
    GASimulationTestGenerator,
    GAStateJustifier,
    GeneticAlgorithm,
)
from .baselines import (
    RandomAtpgParams,
    RandomTestGenerator,
    WeightedRandomTestGenerator,
)
from .hybrid import (
    HybridTestGenerator,
    PassConfig,
    RunResult,
    gahitec,
    gahitec_schedule,
    hitec_baseline,
    hitec_schedule,
)
from .telemetry import (
    RunReport,
    TelemetryRecorder,
    diff_reports,
    render_diff,
    validate_report,
)
from .rtl import RtlBuilder
from .circuits import (
    am2910,
    div16,
    iscas89,
    mult16,
    pcont2,
    s27,
    synthetic_sequential,
)
from .campaign import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
)
from .analysis import (
    FaultDictionary,
    TestProgram,
    build_test_program,
    compact_test_set,
    evaluate_test_set,
    random_baseline,
    render_table,
    seed_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "FaultDictionary",
    "GAAtpgParams",
    "GASimulationTestGenerator",
    "InputConstraints",
    "RandomAtpgParams",
    "RandomTestGenerator",
    "ScanAtpgParams",
    "ScanTestGenerator",
    "TestProgram",
    "WeightedRandomTestGenerator",
    "build_test_program",
    "compact_test_set",
    "insert_scan",
    "load_verilog",
    "parse_verilog",
    "save_verilog",
    "seed_sweep",
    "write_verilog",
    "CircuitError",
    "Fault",
    "FaultSimulator",
    "FrameSimulator",
    "GAJustifyParams",
    "GAParams",
    "GAStateJustifier",
    "Gate",
    "GateType",
    "GeneticAlgorithm",
    "HybridTestGenerator",
    "Limits",
    "PassConfig",
    "PodemEngine",
    "RtlBuilder",
    "RunReport",
    "RunResult",
    "SequentialTestGenerator",
    "TelemetryRecorder",
    "diff_reports",
    "render_diff",
    "validate_report",
    "TestGenStatus",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "am2910",
    "collapse_faults",
    "div16",
    "evaluate_test_set",
    "fault_coverage",
    "make_simulator",
    "full_fault_list",
    "gahitec",
    "gahitec_schedule",
    "hitec_baseline",
    "hitec_schedule",
    "iscas89",
    "justify_state",
    "load_bench",
    "mult16",
    "parse_bench",
    "pcont2",
    "random_baseline",
    "render_table",
    "s27",
    "save_bench",
    "sweep",
    "synthetic_sequential",
    "write_bench",
    "__version__",
]
