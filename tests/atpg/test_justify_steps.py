"""Single-step search reuse: the resumable PODEM engine and the memo of
single-step JUSTIFY searches that reverse-time justification reads.

Every query answered from the memo must give exactly what a fresh engine
gives when consumed the same way, and a whole run with one memo per pass
must equal a run whose justification calls each keep a private memo.
"""

from __future__ import annotations

import copy
import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.atpg import justify as justify_mod
from repro.atpg import podem as podem_mod
from repro.atpg.constraints import InputConstraints
from repro.atpg.justify import JustifySteps, justify_state
from repro.atpg.podem import Limits, PodemEngine, SearchStatus
from repro.circuits import iscas89
from repro.faults.collapse import collapse_faults
from repro.hybrid import driver as driver_mod
from repro.hybrid.driver import HybridTestGenerator
from repro.hybrid.passes import gahitec_schedule, hitec_schedule
from repro.knowledge import StateKnowledge
from repro.simulation.compiled import compile_circuit
from repro.telemetry import TelemetryRecorder
from ..conftest import random_circuits

#: an s298 cube with 12 solutions under 40 backtracks, and 3 under 3
CUBE = {"ffr11": 0, "ffc3": 1, "ffc4": 0}
#: an s298 cube whose space is exhausted after 9 solutions
EXHAUSTIBLE = {"ffr11": 0, "ffr13": 0, "ffc2": 1}


@pytest.fixture(scope="module")
def s298():
    return compile_circuit(iscas89("s298"))


def _key(sol):
    return (dict(sol.required_state), sol.vectors, sol.backtracks)


def take(iterator, n):
    """Up to ``n`` solutions (all when ``n`` is None), as comparable keys."""
    out = []
    while n is None or len(out) < n:
        assert len(out) < 1000, "the stream does not end"
        sol = next(iterator, None)
        if sol is None:
            break
        out.append(_key(sol))
    return out


def fresh(cc, cube, budget, n):
    """What a fresh engine gives for ``cube`` when ``n`` solutions are taken."""
    engine = PodemEngine(cc, targets=cube)
    return take(engine.solutions(Limits(budget)), n), engine.status


def query(steps, cc, cube, limits, n):
    cursor = steps.query(cc, cube, limits, None)
    return take(iter(cursor), n), cursor.status


class TickClock:
    """A clock that advances one unit on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
class TestResumableEngine:
    def test_next_solution_gives_the_solutions_stream(self, s298):
        cc = s298
        expected, status = fresh(cc, CUBE, 40, None)
        limits = Limits(40)
        engine = PodemEngine(cc, targets=CUBE)
        assert take(iter(lambda: engine.next_solution(limits), None), None) == (
            expected
        )
        assert engine.status is status

    def test_a_budget_cut_resumes_under_a_larger_budget(self, s298):
        cc = s298
        engine = PodemEngine(cc, targets=CUBE)
        first = take(engine.solutions(Limits(3)), None)
        assert engine.status is SearchStatus.LIMIT
        rest = take(engine.solutions(Limits(40)), None)
        assert first + rest == fresh(cc, CUBE, 40, None)[0]

    def test_each_call_continues_after_the_last_yield(self, s298):
        cc = s298
        engine = PodemEngine(cc, targets=CUBE)
        pulled = [next(engine.solutions(Limits(40)), None) for _ in range(4)]
        assert [_key(s) for s in pulled if s is not None] == (
            fresh(cc, CUBE, 40, 4)[0]
        )

    def test_an_exhausted_space_stays_exhausted(self, s298):
        cc = s298
        engine = PodemEngine(cc, targets=EXHAUSTIBLE)
        assert take(engine.solutions(Limits(10_000)), None)
        assert engine.status is SearchStatus.EXHAUSTED
        assert engine.next_solution(Limits(10_000)) is None
        assert engine.run(Limits(10_000)) is None
        assert engine.status is SearchStatus.EXHAUSTED


# ----------------------------------------------------------------------
BUDGETS = (0, 1, 3, 8, 40)


@st.composite
def query_plans(draw):
    """A random circuit with flip-flops, a small pool of ordered cubes and
    a sequence of (cube, budget, solutions taken) queries over it."""
    circuit = draw(random_circuits(max_pi=3, max_ff=3, max_gates=10))
    assume(circuit.flops)
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        flops = draw(st.permutations(circuit.flops))
        size = draw(st.integers(1, len(flops)))
        pool.append({ff: draw(st.integers(0, 1)) for ff in flops[:size]})
    plan = draw(st.lists(
        st.tuples(
            st.integers(0, len(pool) - 1),
            st.sampled_from(BUDGETS),
            st.one_of(st.none(), st.integers(1, 4)),
        ),
        min_size=1, max_size=8,
    ))
    return circuit, pool, plan


class TestStreamEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(query_plans())
    def test_every_query_equals_a_fresh_engine(self, drawn):
        circuit, pool, plan = drawn
        cc = compile_circuit(circuit)
        steps = JustifySteps()
        for index, budget, n in plan:
            cube = pool[index]
            got = query(steps, cc, cube, Limits(budget), n)
            assert got == fresh(cc, cube, budget, n)
        assert steps.built + steps.reuses == len(plan)

    def test_order_and_budget_are_part_of_the_key(self, s298):
        cc = s298
        turned = dict(reversed(list(CUBE.items())))
        steps = JustifySteps()
        # a smaller budget after a larger one, then replays of each
        plan = [(CUBE, 40, None), (CUBE, 3, None), (turned, 40, 2),
                (CUBE, 40, 1), (turned, 40, None), (CUBE, 3, 2)]
        for cube, budget, n in plan:
            got = query(steps, cc, cube, Limits(budget), n)
            assert got == fresh(cc, cube, budget, n)
        assert (steps.built, steps.reuses) == (3, 3)

    def test_two_interleaved_cursors_each_see_the_whole_stream(self, s298):
        cc = s298
        expected, status = fresh(cc, CUBE, 40, None)
        steps = JustifySteps()
        first = steps.query(cc, CUBE, Limits(40), None)
        second = steps.query(cc, CUBE, Limits(40), None)
        a, b = iter(first), iter(second)
        seen_a, seen_b = take(a, 1), take(b, 2)
        seen_a += take(a, 2)
        seen_b += take(b, None)
        seen_a += take(a, None)
        assert seen_a == expected and seen_b == expected
        assert first.status is status and second.status is status
        assert steps.built == 1


class TestDeadline:
    def test_a_deadline_cut_keeps_the_search_for_the_next_query(self, s298):
        cc = s298
        expected, status = fresh(cc, CUBE, 40, None)
        steps = JustifySteps()
        cut = Limits(40, deadline=25.0, clock=TickClock())
        got, cut_status = query(steps, cc, CUBE, cut, None)
        assert cut_status is SearchStatus.LIMIT
        assert 0 < len(got) < len(expected) and got == expected[: len(got)]
        (stream,) = steps._streams.values()
        assert stream.engine is not None
        assert query(steps, cc, CUBE, Limits(40), None) == (expected, status)
        assert steps.built == 1

    def test_a_replay_checks_the_deadline(self, s298):
        cc = s298
        steps = JustifySteps()
        full = query(steps, cc, CUBE, Limits(40), None)
        expired = Limits(40, deadline=0.0, clock=lambda: 1.0)
        assert query(steps, cc, CUBE, expired, None) == (
            [], SearchStatus.LIMIT
        )
        assert query(steps, cc, CUBE, Limits(40), None) == full


class TestRelease:
    @pytest.mark.parametrize("budget, status", [
        (3, SearchStatus.LIMIT),  # cut by the budget the key fixes
        (10_000, SearchStatus.EXHAUSTED),
    ])
    def test_a_final_stream_holds_no_engine(self, s298, budget, status):
        cc = s298
        steps = JustifySteps()
        got = query(steps, cc, EXHAUSTIBLE, Limits(budget), None)
        assert got == fresh(cc, EXHAUSTIBLE, budget, None)
        (stream,) = steps._streams.values()
        assert stream.engine is None
        assert stream.status is status

    def test_an_unfinished_stream_keeps_its_engine(self, s298):
        cc = s298
        steps = JustifySteps()
        query(steps, cc, CUBE, Limits(40), 1)
        (stream,) = steps._streams.values()
        assert stream.engine is not None


class TestGuard:
    """A memo serves the compiled circuit and constraints of its first
    query and refuses any other with one line."""

    def refused(self, steps, cc, cube, constraints):
        with pytest.raises(ValueError, match="JustifySteps memo") as info:
            steps.query(cc, cube, Limits(3), constraints)
        assert "\n" not in str(info.value)

    def test_another_compiled_circuit_is_refused(self, s298):
        steps = JustifySteps()
        expected = query(steps, s298, CUBE, Limits(40), None)
        self.refused(steps, compile_circuit(iscas89("s27")), {"G5": 1}, None)
        # the same netlist compiled again is another compiled circuit
        self.refused(steps, compile_circuit(iscas89("s298")), CUBE, None)
        assert query(steps, s298, CUBE, Limits(40), None) == expected
        assert (steps.built, steps.reuses) == (1, 1)

    def test_another_constraint_set_is_refused(self):
        cc = compile_circuit(iscas89("s27"))
        fixed = InputConstraints(fixed={"G0": 0})
        steps = JustifySteps()
        steps.query(cc, {"G5": 1}, Limits(3), fixed)
        self.refused(steps, cc, {"G5": 1}, None)
        self.refused(steps, cc, {"G5": 1}, InputConstraints(fixed={"G0": 1}))
        self.refused(steps, cc, {"G5": 1}, InputConstraints(hold={"G0"}))
        # an equal constraint set is the same one
        steps.query(cc, {"G5": 1}, Limits(3), InputConstraints(fixed={"G0": 0}))
        assert (steps.built, steps.reuses) == (1, 1)


# ----------------------------------------------------------------------
def _cubes(circuit, rng, count):
    pool = []
    for _ in range(count):
        chosen = rng.sample(list(circuit.flops), rng.randint(1, 3))
        pool.append({ff: rng.randint(0, 1) for ff in chosen})
    return pool


def _store_contents(store):
    if store is None:
        return None
    return (store.justified, store.unjustifiable, store.snapshot_stats())


class TestJustifyStateDifferential:
    @pytest.mark.parametrize("name", ["s27", "s298"])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_a_shared_memo_changes_no_result(self, name, seed, with_store):
        circuit = iscas89(name)
        cc = compile_circuit(circuit)
        rng = random.Random(seed)
        pool = _cubes(circuit, rng, 8)
        calls = [
            (rng.choice(pool), rng.randint(1, 4), rng.choice((4, 40)),
             rng.choice((1, 8)))
            for _ in range(30)
        ]

        def run(shared):
            store = StateKnowledge(circuit.name) if with_store else None
            results = [
                justify_state(
                    cc, cube, max_depth=depth, limits=Limits(budget),
                    solutions_per_step=per_step,
                    knowledge=store, steps=shared,
                )
                for cube, depth, budget, per_step in calls
            ]
            return results, _store_contents(store)

        steps = JustifySteps()
        assert run(steps) == run(None)
        # on s27 a store answers the repeats before any search
        assert steps.reuses > 0 or (name, with_store) == ("s27", True)


# ----------------------------------------------------------------------
def private_memo_per_call(monkeypatch):
    """Give every justification call a memo of its own."""
    real = justify_state

    def unshared(*args, steps=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(driver_mod, "justify_state", unshared)


def run_outputs(circuit, schedule, fault_model="stuck_at", faults=None):
    tel = TelemetryRecorder()
    driver = HybridTestGenerator(
        circuit, seed=1, telemetry=tel, fault_model=fault_model, faults=faults
    )
    result = driver.run(schedule)
    dispositions = [
        (r.fault, r.status, r.pass_number, r.targeted, r.backtracks,
         r.justification, r.incidental, r.knowledge_hits)
        for r in result.report.faults
    ]
    return (
        sorted(map(str, result.detected)),
        sorted(map(str, result.untestable)),
        result.test_set,
        dispositions,
    ), tel


class TestDriverDifferential:
    @pytest.mark.parametrize("fault_model", ["stuck_at", "transition"])
    def test_hitec_two_passes(self, monkeypatch, fault_model):
        circuit = iscas89("s298")
        schedule = hitec_schedule(
            time_scale=None, num_passes=2, backtrack_base=4, justify_depth=4
        )
        shared, tel = run_outputs(circuit, schedule, fault_model)
        private_memo_per_call(monkeypatch)
        assert run_outputs(circuit, schedule, fault_model)[0] == shared
        assert tel.value("atpg.justify_step_reuses") > 0

    def test_gahitec(self, monkeypatch):
        circuit = iscas89("s298")
        faults = collapse_faults(circuit)[:60]
        schedule = gahitec_schedule(
            x=8, num_passes=3, time_scale=None, backtrack_base=3,
            justify_depth=3, population_scale=4,
        )
        shared, tel = run_outputs(circuit, schedule, faults=faults)
        private_memo_per_call(monkeypatch)
        assert run_outputs(circuit, schedule, faults=faults)[0] == shared
        assert tel.value("atpg.justify_steps") > 0


class TestPassScope:
    def run_recorded(self, monkeypatch):
        """A two-pass HITEC run on s298 whose memos are watched."""
        memos = []

        class Watched(JustifySteps):
            def __init__(self):
                super().__init__()
                memos.append(weakref.ref(self))

        monkeypatch.setattr(driver_mod, "JustifySteps", Watched)
        tel = TelemetryRecorder()
        driver = HybridTestGenerator(
            iscas89("s298"), seed=1, telemetry=tel,
            faults=collapse_faults(iscas89("s298"))[:80],
        )
        real_run_pass = driver.run_pass
        freed = []

        def run_pass(cfg):
            stats = real_run_pass(cfg)
            freed.append(memos[-1]() is None)
            return stats

        driver.run_pass = run_pass
        schedule = hitec_schedule(
            time_scale=None, num_passes=2, backtrack_base=4, justify_depth=4
        )
        driver.run(schedule)
        return memos, freed, tel

    def test_each_pass_memo_is_freed_when_the_pass_returns(self, monkeypatch):
        gc.disable()
        try:
            memos, freed, tel = self.run_recorded(monkeypatch)
        finally:
            gc.enable()
        assert len(memos) == 2
        assert freed == [True, True]
        assert tel.value("atpg.justify_step_reuses") > 0

    def test_counters_count_built_and_reused_searches(self, monkeypatch):
        built = []
        queried = []
        real_init = PodemEngine.__init__
        real_query = JustifySteps.query

        def init(self, cc, fault=None, *args, **kwargs):
            if fault is None:
                built.append(1)
            real_init(self, cc, fault, *args, **kwargs)

        def counted_query(self, *args, **kwargs):
            queried.append(1)
            return real_query(self, *args, **kwargs)

        monkeypatch.setattr(podem_mod.PodemEngine, "__init__", init)
        monkeypatch.setattr(justify_mod.JustifySteps, "query", counted_query)
        _, _, tel = self.run_recorded(monkeypatch)
        assert tel.value("atpg.justify_steps") == len(built) > 0
        assert tel.value("atpg.justify_step_reuses") == len(queried) - len(built)
        assert tel.value("atpg.justify_step_reuses") > 0

    def test_no_solution_changes_while_a_run_reuses_it(self, monkeypatch):
        handed = []
        real = PodemEngine.next_solution

        def snapshot(self, limits):
            sol = real(self, limits)
            if sol is not None:
                handed.append((sol, copy.deepcopy(sol)))
            return sol

        monkeypatch.setattr(podem_mod.PodemEngine, "next_solution", snapshot)
        _, _, tel = self.run_recorded(monkeypatch)
        assert tel.value("atpg.justify_step_reuses") > 0
        assert handed
        assert all(sol == before for sol, before in handed)
