"""The end-to-end workloads: inputs from a seed, one run, the output check.

Each workload is a closed loop: one batch job on the GA-HITEC driver, or a
campaign whose two workers each pull the next work item only when the
previous one is done.  Every budget is structural (``time_scale=None``), so
a seed fixes the detected set exactly.  No workload names a simulation
backend, word width or knowledge switch: the program's defaults apply, and
a change of default shows up as a change here.

``repro`` is imported inside the methods, after the benchmark has had the
chance to time the import and install its tracer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass
class Outcome:
    """What one run produced, read from the program's own outputs.

    Attributes:
        detected: sorted names of the detected faults (``circuit:fault``
            for a campaign).
        untestable: faults proven untestable.
        vectors: test-set length.
        total_faults: size of the fault universe.
        operations: operations attempted: one per fault, or one per
            campaign work item.
        failed_ops: operations the program itself reported as failed.
        fault_s: per targeted fault, seconds until its disposition.
        extra: workload-specific figures (campaign phase times, retries).
    """

    detected: List[str]
    untestable: int
    vectors: int
    total_faults: int
    operations: int
    failed_ops: int
    fault_s: List[float]
    extra: Dict[str, float] = field(default_factory=dict)


def _unconfirmed(circuit: Any, vectors: List[List[int]], faults: List[Any],
                 claimed: List[str]) -> int:
    """Claims a fresh all-X event-backend fault simulation does not confirm."""
    from repro.simulation.fault_sim import FaultSimulator

    if not claimed:
        return 0
    grade = FaultSimulator(circuit, backend="event").run(vectors, faults)
    confirmed = {str(f) for f in grade.detected}
    return sum(1 for name in claimed if name not in confirmed)


@dataclass(frozen=True)
class DriverWorkload:
    """One ``HybridTestGenerator.run`` over a circuit's collapsed faults.

    Attributes:
        name: workload name.
        circuit: built-in circuit name.
        schedule: ``"gahitec"`` or ``"hitec"`` (the schedule builder).
        params: keyword arguments of the schedule builder.
        fault_model: registered fault-model name.
    """

    name: str
    circuit: str
    schedule: str
    params: Dict[str, Any]
    fault_model: str = "stuck_at"

    def setup(self, seed: int) -> Any:
        """Build the driver: circuit compiled, faults collapsed, SCOAP done."""
        from repro.circuits.resolve import resolve_circuit
        from repro.hybrid.driver import HybridTestGenerator

        return HybridTestGenerator(
            resolve_circuit(self.circuit), seed=seed, fault_model=self.fault_model
        )

    def run(self, driver: Any, workdir: str) -> Any:
        from repro.hybrid.passes import gahitec_schedule, hitec_schedule

        build = gahitec_schedule if self.schedule == "gahitec" else hitec_schedule
        return driver.run(build(time_scale=None, **self.params))

    def summarize(self, driver: Any, result: Any, workdir: str) -> Outcome:
        return Outcome(
            detected=sorted(str(f) for f in result.detected),
            untestable=len(result.untestable),
            vectors=len(result.test_set),
            total_faults=result.total_faults,
            operations=result.total_faults,
            failed_ops=0,
            fault_s=[r.time_s for r in result.report.faults if r.targeted],
        )

    def regrade(self, driver: Any, result: Any) -> int:
        return _unconfirmed(
            driver.circuit, result.test_set, driver.all_faults,
            [str(f) for f in result.detected],
        )


@dataclass(frozen=True)
class CampaignWorkload:
    """One ``CampaignRunner.run`` with per-fault work items.

    Attributes:
        name: workload name.
        circuits: built-in circuit names.
        params: further :class:`~repro.campaign.spec.CampaignSpec` fields.
        workers: pooled worker processes, fixed whatever the host's cores.
    """

    name: str
    circuits: Tuple[str, ...]
    params: Dict[str, Any]
    workers: int = 2

    def setup(self, seed: int) -> Any:
        """Build the spec and the warm state the runner forks from."""
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.warm import CampaignWarmState

        spec = CampaignSpec(circuits=self.circuits, seed=seed, **self.params)
        CampaignWarmState.build(spec)
        return spec

    def run(self, spec: Any, workdir: str) -> Any:
        from repro.campaign.runner import CampaignRunner

        runner = CampaignRunner(
            spec, os.path.join(workdir, "journal.jsonl"), workers=self.workers
        )
        return runner.run()

    def summarize(self, spec: Any, result: Any, workdir: str) -> Outcome:
        with open(os.path.join(workdir, "journal.jsonl"), encoding="utf-8") as handle:
            retried = sum(
                1 for line in handle if json.loads(line)["type"] == "item_failed"
            )
        merged = result.circuits.values()
        extra = dict(result.phase_times, items_retried=retried, workers=self.workers)
        return Outcome(
            detected=sorted(
                f"{c.circuit}:{name}" for c in merged for name in c.detected
            ),
            untestable=sum(len(c.untestable) for c in merged),
            vectors=result.vectors,
            total_faults=result.total_faults,
            operations=result.items_done + result.items_failed,
            failed_ops=result.items_failed,
            fault_s=[r.time_s for r in result.report.faults if r.targeted],
            extra=extra,
        )

    def regrade(self, spec: Any, result: Any) -> int:
        from repro.campaign.queue import shard_faults
        from repro.circuits.resolve import resolve_circuit

        return sum(
            _unconfirmed(
                resolve_circuit(name), merged.vectors,
                shard_faults(spec, name), merged.detected,
            )
            for name, merged in result.circuits.items()
        )


# Budgets are cut from the Table I schedule so that one run takes about
# five seconds on a 2-vCPU host; the benchmark repeats runs to fill its
# time.  Only gahitec_s386 runs the GA: with a GA pass, the test-set
# length on s298 and in the campaign moves by up to a quarter from one
# seed to the next, too much for a bound to hold, while deterministic
# passes give the same counts for every seed.
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        # GA, GA, deterministic: GA fitness simulation and matching lead
        DriverWorkload(
            "gahitec_s386", "s386", "gahitec",
            dict(x=10, num_passes=3, backtrack_base=3, justify_depth=3,
                 population_scale=4),
        ),
        # deterministic only: implication and PODEM without the GA
        DriverWorkload(
            "hitec_s298", "s298", "hitec",
            dict(num_passes=1, backtrack_base=5, justify_depth=3),
        ),
        # transition faults: the same engine launched from frame 1
        DriverWorkload(
            "transition_s298", "s298", "hitec",
            dict(num_passes=1, backtrack_base=5, justify_depth=3),
            fault_model="transition",
        ),
        # warm fork, 547 per-fault items, fsynced journal, merge re-grade
        CampaignWorkload(
            "campaign_s298_s386", ("s298", "s386"),
            dict(passes=1, backtracks=5, justify_depth=3, baseline=True),
        ),
    )
}
