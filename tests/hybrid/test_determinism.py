"""Seed determinism and injectable-clock behaviour of the driver.

The campaign subsystem's resume guarantee rests on these invariants:
identical seeds (with no wall-clock-dependent pass limits) must produce
byte-identical fault dispositions and test vectors, and all wall-clock
reads must go through the injectable clock so tests and workers control
time.
"""

import json

import pytest

from repro.atpg.podem import Limits
from repro.atpg.scoap import cached_testability
from repro.circuits import iscas89, s27
from repro.faults.collapse import collapse_faults
from repro.ga import justification
from repro.hybrid.driver import HybridTestGenerator, gahitec
from repro.hybrid.passes import gahitec_schedule
from repro.simulation.compiled import compile_circuit
from repro.telemetry import TelemetryRecorder


def run_once(seed, clock=None):
    driver = gahitec(s27(), seed=seed, clock=clock)
    result = driver.run(gahitec_schedule(x=8, num_passes=2, time_scale=None))
    return result


def disposition_bytes(result):
    """Canonical byte encoding of every fault's final disposition."""
    records = [
        {
            "fault": r.fault,
            "status": r.status,
            "pass": r.pass_number,
            "justification": r.justification,
            "incidental": r.incidental,
        }
        for r in result.report.faults
    ]
    return json.dumps(records, sort_keys=True).encode()


class TestSeedDeterminism:
    def test_identical_seeds_identical_dispositions_and_vectors(self):
        a = run_once(seed=7)
        b = run_once(seed=7)
        assert disposition_bytes(a) == disposition_bytes(b)
        assert a.test_set == b.test_set
        assert a.blocks == b.blocks
        assert sorted(map(str, a.untestable)) == sorted(map(str, b.untestable))

    def test_fake_clock_zeroes_every_duration(self):
        result = run_once(seed=7, clock=lambda: 0.0)
        assert result.report.wall_time_s == 0.0
        assert all(p.time_s == 0.0 for p in result.report.passes)

    def test_fake_clock_runs_match_real_clock_runs(self):
        fake = run_once(seed=7, clock=lambda: 0.0)
        real = run_once(seed=7)
        assert disposition_bytes(fake) == disposition_bytes(real)
        assert fake.test_set == real.test_set

    def test_precomputed_testability_matches_lazy(self):
        """The warm-fork invariant: a driver on a circuit whose SCOAP
        measures are already cached on its compiled form (as campaign
        workers inherit them from the pre-fork warm state) gives the
        results of a cold one."""
        circuit = s27()
        cc = compile_circuit(circuit)
        measures = cached_testability(cc)
        warm = HybridTestGenerator(circuit, seed=7)
        assert warm.cc is cc and cached_testability(warm.cc) is measures
        schedule = gahitec_schedule(x=8, num_passes=2, time_scale=None)
        warm_result = warm.run(schedule)
        cold_result = run_once(seed=7)
        assert disposition_bytes(warm_result) == disposition_bytes(cold_result)
        assert warm_result.test_set == cold_result.test_set


class TestReachableSkip:
    """GA justification skips simulating cubes no reachable state covers;
    the run must equal one that simulates them all."""

    @staticmethod
    def run(circuit, schedule, faults):
        tel = TelemetryRecorder()
        driver = gahitec(circuit, seed=5, telemetry=tel, faults=faults)
        result = driver.run(schedule)
        return (
            sorted(map(str, result.detected)),
            sorted(map(str, result.untestable)),
            result.test_set,
            driver.rng.getstate(),
        ), tel.value("ga.justify.unreachable")

    @pytest.mark.parametrize("name, num_passes, n_faults, min_skips", [
        ("s27", 3, None, 0),  # all faults, GA and deterministic passes
        ("s298", 2, 40, 1),  # the GA passes on a prefix of the faults
    ])
    def test_outputs_equal_a_run_without_the_set(
        self, monkeypatch, name, num_passes, n_faults, min_skips
    ):
        circuit = iscas89(name)
        faults = collapse_faults(circuit)[:n_faults]
        schedule = gahitec_schedule(
            x=8, num_passes=num_passes, time_scale=None, backtrack_base=3,
            justify_depth=3, population_scale=4,
        )
        pruned, skipped = self.run(circuit, schedule, faults)
        monkeypatch.setattr(justification, "reachable_states", lambda cc: None)
        full, _ = self.run(circuit, schedule, faults)
        assert pruned == full
        assert skipped >= min_skips


class TestDeadline:
    def test_expired_deadline_stops_before_any_fault(self):
        driver = gahitec(s27(), seed=1, clock=lambda: 100.0)
        schedule = gahitec_schedule(x=8, num_passes=1, time_scale=None)
        result = driver.run(schedule, deadline=50.0)
        assert result.deadline_expired
        assert result.test_set == []

    def test_future_deadline_does_not_interfere(self):
        driver = gahitec(s27(), seed=1, clock=lambda: 0.0)
        schedule = gahitec_schedule(x=8, num_passes=1, time_scale=None)
        result = driver.run(schedule, deadline=1e9)
        assert not result.deadline_expired
        reference = run_once(seed=1)
        assert result.test_set == reference.test_set[: len(result.test_set)]


class TestLimitsClock:
    def test_limits_use_injected_clock(self):
        ticks = iter([0.0, 10.0])
        limits = Limits(max_backtracks=5, deadline=5.0,
                        clock=lambda: next(ticks))
        assert not limits.expired()
        assert limits.expired()

    def test_no_deadline_never_expires(self):
        limits = Limits(max_backtracks=5)
        assert not limits.expired()
