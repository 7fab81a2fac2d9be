"""AtpgContext: shared per-circuit state, built once, shared by engines."""

from repro.atpg.constraints import InputConstraints
from repro.atpg.context import AtpgContext
from repro.atpg.hitec import SequentialTestGenerator
from repro.atpg.scoap import cached_testability
from repro.circuits import s27, two_stage_pipeline
from repro.ga.justification import GAStateJustifier
from repro.simulation.compiled import CompiledCircuit, compile_circuit


class TestConstruction:
    def test_compiles_circuit_once(self):
        ctx = AtpgContext(s27())
        assert isinstance(ctx.cc, CompiledCircuit)
        assert ctx.circuit.name == "s27"

    def test_accepts_precompiled_circuit(self):
        cc = compile_circuit(s27())
        ctx = AtpgContext(cc)
        assert ctx.cc is cc


class TestSharedArtifacts:
    def test_testability_and_faults_are_cached(self):
        ctx = AtpgContext(s27())
        assert cached_testability(ctx.cc) is cached_testability(ctx.cc)
        first = ctx.faults
        assert first == ctx.faults
        first.clear()  # callers get copies; the cache must survive
        assert ctx.faults

    def test_fault_simulators_cached_by_shape(self):
        ctx = AtpgContext(s27())
        assert ctx.fault_simulator(64) is ctx.fault_simulator(64)
        assert ctx.fault_simulator(64) is not ctx.fault_simulator(32)


class TestConstraintsAndKnowledge:
    def test_trivial_constraints_normalise_away(self):
        ctx = AtpgContext(s27())
        assert ctx.active_constraints is None
        assert ctx.knowledge_fingerprint == "unconstrained"
        ctx2 = AtpgContext(s27(), constraints=InputConstraints())
        assert ctx2.active_constraints is None

    def test_make_knowledge_matches_environment(self):
        pinned = InputConstraints(fixed={"G0": 0})
        ctx = AtpgContext(two_stage_pipeline(), constraints=pinned)
        store = ctx.make_knowledge()
        assert ctx.knowledge is store
        assert store.circuit == "pipe2"
        assert store.fingerprint == ctx.knowledge_fingerprint != "unconstrained"


class TestEngineSharing:
    def test_engines_built_on_one_context_share_state(self):
        ctx = AtpgContext(s27())
        seqgen = SequentialTestGenerator(ctx)
        ga = GAStateJustifier(ctx)
        assert seqgen.ctx is ctx
        assert ga.ctx is ctx
