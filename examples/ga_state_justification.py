#!/usr/bin/env python3
"""Genetic versus deterministic state justification, head to head.

State justification is the hard part of sequential ATPG: given flip-flop
values a test needs in time frame zero, find an input sequence that drives
the circuit there.  This example targets counter states — the classic
hard-to-justify case, since reaching count N needs N coherent steps — and
pits the paper's GA (Section IV) against reverse-time deterministic search
(HITEC style).

Run:
    python examples/ga_state_justification.py
"""

import random
import time

from repro import Limits, justify_state
from repro.atpg.context import AtpgContext
from repro.circuits import counter
from repro.ga import GAJustifyParams, GAStateJustifier
from repro.simulation import FrameSimulator, compile_circuit, pack_const, unpack


def verify(circuit, required, vectors) -> bool:
    """Replay a justification sequence from power-up and check the state."""
    sim = FrameSimulator(circuit, width=1)
    for vec in vectors:
        sim.step([pack_const(0 if v == 2 else v, 1) for v in vec])
    state = dict(zip(circuit.flops, sim.get_state()))
    return all(unpack(state[net], 1)[0] == want for net, want in required.items())


def main() -> None:
    width = 4
    circuit = counter(width)
    cc = compile_circuit(circuit)
    ctx = AtpgContext(cc)
    print(f"Circuit: {width}-bit clearable counter {circuit.stats()}\n")

    for target in (3, 9, 13):
        required = {f"q{i}": (target >> i) & 1 for i in range(width)}
        print(f"Target state: count = {target}  ({required})")

        t0 = time.perf_counter()
        ga = GAStateJustifier(ctx, rng=random.Random(0))
        ga_res = ga.justify(
            required,
            GAJustifyParams(seq_len=2 * target + 4, population_size=64,
                            generations=8),
        )
        ga_time = time.perf_counter() - t0
        status = f"{len(ga_res.vectors)} vectors" if ga_res.success else "failed"
        print(f"  GA            : {status:>12s}  in {ga_time * 1e3:7.1f} ms")
        if ga_res.success:
            assert verify(circuit, required, ga_res.vectors)

        t0 = time.perf_counter()
        det_res = justify_state(
            cc, required, max_depth=target + 3,
            limits=Limits(max_backtracks=200_000),
        )
        det_time = time.perf_counter() - t0
        status = f"{len(det_res.vectors)} vectors" if det_res.success else det_res.status.value
        print(f"  deterministic : {status:>12s}  in {det_time * 1e3:7.1f} ms")
        if det_res.success:
            assert verify(circuit, required, det_res.vectors)
        print()

    print("Both engines verified against replay simulation.")


if __name__ == "__main__":
    main()
