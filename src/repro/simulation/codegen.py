"""Code-generated simulation kernels: the ``codegen`` backend.

For each compiled circuit (and each *shape* of injected faults) this
module emits the full levelized combinational sweep as one specialized
Python function — straight-line bitwise expressions over local variables,
no per-gate dispatch, no tuple allocation, no attribute lookups — and
``exec``-compiles it once.  :class:`CodegenFrameSimulator` settles the
gates of :class:`~repro.simulation.logic_sim.FrameSimulator`'s state
machine with the kernel instead of propagating events; the event backend
remains the differential-testing oracle.  The kernel forces the
gate-level injections (gate-output stems and pins) only: the simulator
forces source stems as it writes them and D pins at the clock edge.

Kernels are cached on the :class:`~repro.simulation.compiled.
CompiledCircuit` itself, keyed by an *injection signature*: the fault
sites and stuck values, but **not** the slot masks, which are passed in
as runtime arguments.  Fault batches with the same shape (the common
case: the GA justifier re-simulating one target fault for thousands of
candidate sequences) therefore share a single compiled kernel, and the
cache dies with the compiled circuit — no global state.

A generated kernel looks like::

    def _kernel(v1, v0, mask, m0):
        n0 = ~m0
        a3 = v1[3]; b3 = v0[3]          # read sources, already forced
        a7 = a3 & a5; b7 = b3 | b5      # AND gate, inlined
        a7 = a7 | m0; b7 = b7 & n0      # stem s-a-1 on the masked slots
        v1[7] = a7; v0[7] = b7          # write back
        ...
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from types import CodeType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..clock import perf_counter
from . import kernel_cache
from .compiled import CompiledCircuit
from .logic_sim import FrameSimulator, Injection, register_backend

#: Kernels cached per compiled circuit; evicted LRU beyond this many shapes.
KERNEL_CACHE_LIMIT = 256

#: Disk-cache format version for marshalled kernel code objects.
KERNEL_CACHE_VERSION = 2

#: Kernel compilations and their seconds, kept per thread so jobs the
#: service runs concurrently in one process never count each other's.
_STATS = threading.local()

#: Name of the per-CompiledCircuit attribute holding the kernel cache.
_CACHE_ATTR = "_codegen_kernels"

#: One canonical-order injection as it appears in a cache key.  Stuck-at
#: entries are 4-tuples (byte-identical to the model-less days, so every
#: existing cache entry stays valid); non-default models append their
#: name as a fifth element, which can never collide with a stuck-at key.
SignatureEntry = Tuple[int, ...]
Signature = Tuple[SignatureEntry, ...]


def compile_stats() -> Dict[str, float]:
    """This thread's cumulative compilations; a run reports the change."""
    if not hasattr(_STATS, "compiles"):
        _STATS.compiles = {"kernels": 0, "seconds": 0.0}
    return _STATS.compiles


def _canonical(injections: Iterable[Injection]) -> List[Injection]:
    """Combinational injections in the canonical (signature) order.

    Flip-flop D-pin injections are excluded: they act at the clock edge,
    outside the combinational sweep, and the simulator forces them.
    """
    comb = [inj for inj in injections if inj.ff_pos is None]
    return sorted(
        comb,
        key=lambda inj: (
            inj.net,
            inj.stuck,
            -1 if inj.gate_pos is None else inj.gate_pos,
            -1 if inj.pin is None else inj.pin,
            inj.model,
        ),
    )


def injection_signature(injections: Iterable[Injection]) -> Signature:
    """Hashable shape of a set of injections (sites and polarities, no masks)."""
    sig: List[SignatureEntry] = []
    for inj in _canonical(injections):
        entry: Tuple = (
            inj.net,
            inj.stuck,
            -1 if inj.gate_pos is None else inj.gate_pos,
            -1 if inj.pin is None else inj.pin,
        )
        if inj.model != "stuck_at":
            entry = entry + (inj.model,)
        sig.append(entry)
    return tuple(sig)


#: Inverting gate code -> its non-inverting twin (NAND, NOR, XNOR, NOT,
#: CONST1), computed into the swapped output names.
_TWIN = {1: 0, 3: 2, 5: 4, 6: 7, 9: 8}


def gate_lines(
    code: int, ins: Sequence[Tuple[str, str]], out: Tuple[str, str], one: str
) -> List[str]:
    """Statements computing one gate's output word into the names ``out``.

    ``ins`` names each input's ``(p1, p0)`` pair and ``out`` the output's;
    ``one`` is an expression for the all-slots word.  No expression needs
    a mask: words stay inside it.
    """
    oa, ob = out
    if code in _TWIN:
        code, oa, ob = _TWIN[code], ob, oa
    if code == 8:  # CONST0
        return [f"{oa} = 0", f"{ob} = {one}"]
    if code in (0, 2):  # AND / OR: the halves fold with dual operators
        op1, op0 = (" & ", " | ") if code == 0 else (" | ", " & ")
        return [f"{oa} = {op1.join(a for a, _ in ins)}",
                f"{ob} = {op0.join(b for _, b in ins)}"]
    # XOR folds the parity pairwise into the output; BUF copies its input
    (a, b), lines = ins[0], []
    for c, d in ins[1:]:
        lines.append(f"{oa}, {ob} = ({a} & {d}) | ({b} & {c}), "
                     f"({a} & {c}) | ({b} & {d})")
        a, b = oa, ob
    return lines or [f"{oa} = {a}", f"{ob} = {b}"]


def force_lines(a: str, b: str, stuck: int, m: str, n: str) -> List[str]:
    """Statements forcing the slots ``m`` selects of ``(a, b)`` to ``stuck``.

    ``n`` is an expression for ``~m`` (within the word).
    """
    if stuck == 1:
        return [f"{a} = {a} | {m}", f"{b} = {b} & {n}"]
    return [f"{a} = {a} & {n}", f"{b} = {b} | {m}"]


def _transition_lines(a: str, b: str, stuck: int, k: int, j: int) -> List[str]:
    """Statements forcing ``(a, b)`` to the transition combine for slot ``k``.

    The site's raw value was captured into ``tc[2j]``/``tc[2j+1]`` before
    any force mutated the locals; ``tp{k}``/``tq{k}`` are the previous
    frame's raw planes passed in by the simulator.  Slow-to-rise is the
    3-valued AND of raw and previous, slow-to-fall the 3-valued OR.
    """
    ra, rb = f"tc[{2 * j}]", f"tc[{2 * j + 1}]"
    fa, fb = f"f{k}a", f"f{k}b"
    if stuck == 0:
        lines = [f"{fa} = {ra} & tp{k}", f"{fb} = {rb} | tq{k}"]
    else:
        lines = [f"{fa} = {ra} | tp{k}", f"{fb} = {rb} & tq{k}"]
    lines.append(f"{a} = ({a} & n{k}) | ({fa} & m{k})")
    lines.append(f"{b} = ({b} & n{k}) | ({fb} & m{k})")
    return lines


def generate_kernel_source(
    cc: CompiledCircuit,
    injections: Sequence[Injection],
    fn_name: str = "_kernel",
    writeback: "Optional[frozenset]" = None,
) -> str:
    """Emit the specialized full-sweep function for one injection shape.

    ``injections`` are gate-level injections (gate-output stems and gate
    pins) in canonical order: mask argument ``k`` corresponds to
    ``injections[k]``.  Sources are only read; the simulator forces their
    stems as it writes them.  ``writeback`` restricts which gate outputs
    are stored back into the value arrays (``None`` stores all).

    Each transition injection adds a previous-raw pair ``tp{k}``/``tq{k}``
    of parameters, and all of them share one capture buffer ``tc`` the
    kernel writes each site's current raw value into (the simulator rolls
    it into the prevs at each clock).
    """
    tks = [k for k, inj in enumerate(injections) if inj.model != "stuck_at"]
    tslot = {k: j for j, k in enumerate(tks)}
    params = ["v1", "v0", "mask"] + [f"m{k}" for k in range(len(injections))]
    for k in tks:
        params.append(f"tp{k}")
        params.append(f"tq{k}")
    if tks:
        params.append("tc")
    body: List[str] = []

    stem_by_net: Dict[int, List[int]] = {}
    pin_by_site: Dict[Tuple[int, int], List[int]] = {}
    for k, inj in enumerate(injections):
        if inj.gate_pos is None:
            stem_by_net.setdefault(inj.net, []).append(k)
        else:
            pin_by_site.setdefault((inj.gate_pos, inj.pin), []).append(k)
        body.append(f"n{k} = ~m{k}")

    def _apply_site(a: str, b: str, ks: List[int], raw_a: str, raw_b: str) -> None:
        """Capture the site raw, then apply each injection in order."""
        for k in ks:
            if injections[k].model != "stuck_at":
                j = tslot[k]
                body.append(f"tc[{2 * j}] = {raw_a}")
                body.append(f"tc[{2 * j + 1}] = {raw_b}")
        for k in ks:
            if injections[k].model == "stuck_at":
                body.extend(force_lines(a, b, injections[k].stuck,
                                        f"m{k}", f"n{k}"))
            else:
                body.extend(
                    _transition_lines(a, b, injections[k].stuck, k, tslot[k])
                )

    # sources: primary inputs and flip-flop outputs, already forced
    for idx in range(cc.num_nets):
        if cc.gate_of[idx] is not None:
            continue
        body.append(f"a{idx} = v1[{idx}]")
        body.append(f"b{idx} = v0[{idx}]")

    # gates, already in level order
    for pos, gate in enumerate(cc.gates):
        ops: List[Tuple[str, str]] = []
        for pin_idx, src in enumerate(gate.fanin):
            a, b = f"a{src}", f"b{src}"
            ks = pin_by_site.get((pos, pin_idx))
            if ks:
                ta, tb = f"t{pos}_{pin_idx}a", f"t{pos}_{pin_idx}b"
                body.append(f"{ta} = {a}")
                body.append(f"{tb} = {b}")
                _apply_site(ta, tb, ks, a, b)
                a, b = ta, tb
            ops.append((a, b))

        out = gate.out
        oa, ob = f"a{out}", f"b{out}"
        body.extend(gate_lines(gate.code, ops, (oa, ob), "mask"))

        ks = stem_by_net.get(out)
        if ks:
            _apply_site(oa, ob, ks, oa, ob)
        if writeback is None or out in writeback:
            body.append(f"v1[{out}] = {oa}")
            body.append(f"v0[{out}] = {ob}")

    if not body:
        body.append("pass")
    lines = [f"def {fn_name}({', '.join(params)}):"]
    lines.extend(f"    {stmt}" for stmt in body)
    return "\n".join(lines) + "\n"


def kernel_for(
    cc: CompiledCircuit,
    injections: Sequence[Injection],
    writeback: "Optional[frozenset]" = None,
) -> Callable[..., None]:
    """The compiled sweep kernel for one canonical injection shape.

    Cached on the compiled circuit itself (LRU, bounded by
    :data:`KERNEL_CACHE_LIMIT`), so the in-memory cache's lifetime is the
    circuit's.  When the persistent kernel cache is enabled
    (:mod:`repro.simulation.kernel_cache`), a memory miss first tries the
    disk entry — a marshalled code object, keyed by circuit fingerprint,
    injection signature, and the interpreter's bytecode tag — and only a
    disk miss pays source generation and ``exec``-compilation.
    """
    cache: "OrderedDict[Tuple[Signature, Optional[frozenset]], Callable[..., None]]"
    cache = getattr(cc, _CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(cc, _CACHE_ATTR, cache)
    signature = injection_signature(injections)
    key = (signature, writeback)
    fn = cache.get(key)
    if fn is None:
        disk_key = None
        code = None
        if kernel_cache.cache_dir() is not None:
            disk_key = kernel_cache.entry_key(
                "codegen-kernel",
                (KERNEL_CACHE_VERSION, sys.implementation.cache_tag),
                kernel_cache.circuit_fingerprint(cc),
                (
                    signature,
                    None if writeback is None else tuple(sorted(writeback)),
                ),
            )
            code = kernel_cache.load(disk_key)
            if code is not None and not isinstance(code, CodeType):
                code = None  # foreign payload under our key: recompile
        if code is None:
            t0 = perf_counter()
            source = generate_kernel_source(
                cc, injections, writeback=writeback
            )
            code = compile(source, f"<codegen:{cc.circuit.name}>", "exec")
            stats = compile_stats()
            stats["kernels"] += 1
            stats["seconds"] += perf_counter() - t0
            if disk_key is not None:
                kernel_cache.store(disk_key, code)
        namespace: Dict[str, object] = {"__builtins__": {}}
        exec(code, namespace)  # noqa: S102 - netlist-generated, integrity-checked source
        fn = namespace["_kernel"]
        cache[key] = fn
        if len(cache) > KERNEL_CACHE_LIMIT:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return fn


class CodegenFrameSimulator(FrameSimulator):
    """Frame simulator whose gates settle in one generated-kernel call.

    The state, the source writes and the clock edge are
    :class:`~repro.simulation.logic_sim.FrameSimulator`'s; only how the
    gates settle differs: one specialized full sweep with the gate-level
    injections baked in, instead of event-driven selective trace.
    Registered as backend ``"codegen"``.
    """

    def _init_gates(self, injections: List[Injection]) -> None:
        self._canon = _canonical(injections)
        self._kernel_masks = tuple(inj.mask for inj in self._canon)
        # Only the nets the frame loop observes are stored back by the hot
        # kernel: primary outputs and flip-flop D inputs.  ``read`` of any
        # other net falls back to a full-writeback kernel.
        self._observed = frozenset(self.cc.po) | frozenset(self.cc.ff_in)
        self._kernel = kernel_for(self.cc, self._canon, self._observed)
        self._full_kernel: Optional[Callable[..., None]] = None
        #: per transition injection, its site's raw words from the last
        #: sweep (the kernel's capture buffer) and from the previous frame
        n = sum(2 for inj in self._canon if inj.model != "stuck_at")
        self._tcap: List[int] = [0] * n
        self._tprev: List[int] = [0] * n
        self._stale = True

    def _reset_gates(self) -> None:
        x = list(self._x) * (len(self._tcap) // 2)
        self._tcap[:] = x
        self._tprev[:] = x
        self._stale = True

    def _changed(self, nets: List[int]) -> None:
        self._stale = True

    def _roll(self) -> None:
        if self._tcap:
            self._tprev[:] = self._tcap
            self._stale = True

    def settle(self) -> None:
        """Run the generated full sweep if anything changed since the last."""
        if self._stale:
            self._sweep(self._kernel)
            self._stale = False

    def _sweep(self, kernel: Callable[..., None]) -> None:
        if self._tcap:
            kernel(self.v1, self.v0, self.mask, *self._kernel_masks,
                   *self._tprev, self._tcap)
        else:
            kernel(self.v1, self.v0, self.mask, *self._kernel_masks)

    def read(self, net: str) -> "Tuple[int, int]":
        self.settle()
        idx = self.cc.index[net]
        if self.cc.gate_of[idx] is not None and idx not in self._observed:
            # refresh every net once via the full-writeback kernel
            if self._full_kernel is None:
                self._full_kernel = kernel_for(self.cc, self._canon, None)
            self._sweep(self._full_kernel)
        return self.v1[idx], self.v0[idx]


register_backend("codegen", CodegenFrameSimulator)
