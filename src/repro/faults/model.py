"""Fault sites, fault objects, and the pluggable fault-model registry.

A fault sits either on a net itself (a *stem* fault, affecting every
reader) or on one gate's input pin (a *branch* fault on a fanout stem,
affecting only that gate).  Branch faults are enumerated only where the
source net actually fans out to more than one observation point — more
than one reading gate, or one reading gate on a net that is *also* a
primary output; on single-observer nets the branch is structurally
identical to the stem.

Sites are shared across fault models; what a fault *means* at a site is
the model's business, captured by a registered :class:`FaultModel`:

* ``stuck_at`` (the default, and the paper's model) — the site is forced
  to a constant; detection is single-frame observation of the D value.
* ``transition`` (gross-delay) — the site is too slow to change: its
  value in frame ``t`` is the stuck-direction combination of frames
  ``t`` and ``t-1`` (slow-to-rise keeps a 0 one extra frame, slow-to-fall
  keeps a 1).  Detection needs a launch/capture *pair* of frames: one to
  set the initial value, one to attempt the transition and observe.

The printed grammar is model-qualified and :func:`parse_fault` is its
exact inverse::

    NET s-a-V              stem stuck-at-V
    NET->GATE.PIN s-a-V    branch stuck-at-V
    NET s-t-r              stem slow-to-rise (initial value 0)
    NET->GATE.PIN s-t-f    branch slow-to-fall (initial value 1)

``stuck`` doubles as the transition polarity: ``stuck=0`` is slow-to-rise
(the site lingers at 0), ``stuck=1`` slow-to-fall.  That reuse keeps
every downstream consumer of ``fault.stuck`` (excitation objectives,
SCOAP features, D-value orientation) meaningful under both models: to
*excite* the fault you must drive the site to ``1 - stuck`` — for
stuck-at against the constant, for transition against the lingering
initial value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..circuit.netlist import Circuit

#: The model every fault belongs to unless it says otherwise.
DEFAULT_FAULT_MODEL = "stuck_at"

#: Printed suffix per (model, stuck) — extended by register_fault_model().
_SUFFIX: Dict[Tuple[str, int], str] = {
    ("stuck_at", 0): "s-a-0",
    ("stuck_at", 1): "s-a-1",
    ("transition", 0): "s-t-r",
    ("transition", 1): "s-t-f",
}
#: Inverse of _SUFFIX, for parse_fault().
_PARSE: Dict[str, Tuple[str, int]] = {v: k for k, v in _SUFFIX.items()}
#: Model names Fault.__post_init__ accepts (registry-backed).
_MODEL_NAMES = {"stuck_at", "transition"}


class FaultModelError(ValueError):
    """An unknown fault-model name was requested."""


@dataclass(frozen=True, order=True)
class Fault:
    """A single fault under some registered fault model.

    Attributes:
        net: the net the fault site rides on.
        stuck: the stuck logic value (stuck-at), or the lingering initial
            value (transition: 0 = slow-to-rise, 1 = slow-to-fall).
        gate: output net of the reading gate for a branch fault
            (empty string for a stem fault).
        pin: input pin index on that gate (-1 for a stem fault).
        model: registered fault-model name.  Appended with a default so
            stuck-at fault ordering, equality, and construction are
            unchanged from the model-less days.
    """

    net: str
    stuck: int
    gate: str = ""
    pin: int = -1
    model: str = DEFAULT_FAULT_MODEL

    def __post_init__(self) -> None:
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.stuck!r}")
        if self.model not in _MODEL_NAMES:
            raise FaultModelError(
                f"unknown fault model {self.model!r} "
                f"(registered: {', '.join(sorted(_MODEL_NAMES))})"
            )

    @property
    def is_branch(self) -> bool:
        """True for a fault on a specific gate input pin."""
        return bool(self.gate)

    @property
    def site(self) -> str:
        """The printed site part: ``NET`` or ``NET->GATE.PIN``."""
        return f"{self.net}->{self.gate}.{self.pin}" if self.is_branch else self.net

    def __str__(self) -> str:
        return f"{self.site} {_SUFFIX[(self.model, self.stuck)]}"


def parse_fault(text: str) -> Fault:
    """Exact inverse of ``str(Fault)`` over the model-qualified grammar.

    Accepts ``NET s-a-V``, ``NET->GATE.PIN s-a-V``, ``NET s-t-r``,
    ``NET s-t-f`` and the branch forms thereof.  Raises ``ValueError``
    for anything else (including negative or non-numeric pin indices).
    """
    name = text.strip()
    site, sep, suffix = name.rpartition(" ")
    if not sep or suffix not in _PARSE:
        raise ValueError(
            f"unparseable fault {text!r}: expected "
            f"'SITE {{{'|'.join(sorted(_PARSE))}}}'"
        )
    model, stuck = _PARSE[suffix]
    if "->" not in site:
        if not site:
            raise ValueError(f"unparseable fault {text!r}: empty site")
        return Fault(site, stuck, model=model)
    net, _, rest = site.partition("->")
    gate, dot, pin_text = rest.rpartition(".")
    if not net or not dot or not gate or not pin_text.isdigit():
        raise ValueError(f"unparseable branch fault {text!r}")
    return Fault(net, stuck, gate=gate, pin=int(pin_text), model=model)


def _site_fault_list(circuit: Circuit, model: str) -> List[Fault]:
    """Enumerate the uncollapsed per-site fault universe under ``model``.

    Two faults per net (both polarities), plus two branch faults per gate
    input pin whose source net has more than one observation point —
    either fanout greater than one, or fanout of one on a net that is
    *also* a primary output (the PO observes the stem directly, so the
    branch into the gate is a distinct fault).  The list order is
    deterministic: nets in declaration order, stems before branches.
    """
    faults: List[Fault] = []
    fanout = circuit.fanout
    po_set = set(circuit.outputs)
    for net in circuit.nets:
        faults.append(Fault(net, 0, model=model))
        faults.append(Fault(net, 1, model=model))
    for net in circuit.nets:
        readers = fanout[net]
        if len(readers) + (1 if net in po_set else 0) <= 1:
            continue
        for gate_out, pin in readers:
            faults.append(Fault(net, 0, gate=gate_out, pin=pin, model=model))
            faults.append(Fault(net, 1, gate=gate_out, pin=pin, model=model))
    return faults


def full_fault_list(
    circuit: Circuit, model: str = DEFAULT_FAULT_MODEL
) -> List[Fault]:
    """Enumerate the uncollapsed fault universe of a circuit under ``model``."""
    return resolve_fault_model(model).full_faults(circuit)


def fault_site_known(circuit: Circuit, fault: Fault) -> bool:
    """Check that the fault references real structure (for input validation).

    A stem fault must name a driven or primary-input net and carry no
    stray pin index; a branch fault must additionally name a real reading
    gate and the exact pin the net feeds.  A branch into a gate fed by a
    net that is also a primary output is a valid site (the PO is the
    second observation point that makes the branch distinct).
    """
    if fault.net not in circuit.inputs and fault.net not in circuit.gates:
        return False
    if not fault.is_branch:
        # reject malformed stem faults carrying a pin index
        return fault.pin == -1
    g = circuit.gates.get(fault.gate)
    if g is None:
        return False
    if fault.pin < 0 or fault.pin >= len(g.inputs):
        return False
    return g.inputs[fault.pin] == fault.net


# ----------------------------------------------------------------------
# fault-model registry
# ----------------------------------------------------------------------


class FaultModel:
    """What a fault *means*: enumeration, collapse, and detection shape.

    Everything a layer needs to stay model-agnostic is a field or method
    here; the simulation backends additionally dispatch on
    ``Injection.model`` for the per-frame activation condition (see
    :mod:`repro.simulation.logic_sim`).

    Attributes:
        name: registry key, also the value of ``Fault.model``.
        suffixes: printed fault-string suffix per polarity.
        min_window: smallest unrolled window (in frames) that can detect
            a fault — 1 for single-frame observation (stuck-at), 2 for a
            launch/capture pair (transition).
        inject_from_frame: first unrolled frame the engine's faulty
            machine diverges in.  0 for stuck-at (always active); 1 for
            transition, where frame 0 sets the pre-transition value and
            the launch happens at the frame boundary.
        untestable_proofs: whether the unrolled engine's untestability
            proofs are sound under this model.  False for transition:
            the engine searches an approximation of the two-frame
            semantics, so exhaustion proves nothing.
    """

    name: str = ""
    suffixes: Mapping[int, str] = {}
    min_window: int = 1
    inject_from_frame: int = 0
    untestable_proofs: bool = True

    def full_faults(self, circuit: Circuit) -> List[Fault]:
        """The uncollapsed fault universe for ``circuit``."""
        return _site_fault_list(circuit, self.name)

    def collapse(self, circuit: Circuit) -> List[Fault]:
        """One representative per equivalence class, sorted."""
        raise NotImplementedError


class StuckAtModel(FaultModel):
    """Single stuck-at: the site is a constant, observed in any frame."""

    name = "stuck_at"
    suffixes = {0: "s-a-0", 1: "s-a-1"}
    min_window = 1
    inject_from_frame = 0
    untestable_proofs = True

    def collapse(self, circuit: Circuit) -> List[Fault]:
        from .collapse import _collapse_stuck_at

        return _collapse_stuck_at(circuit)


class TransitionModel(FaultModel):
    """Gross-delay transition: the site holds its previous frame's value
    one frame too long in the stuck direction.  Launch/capture detection.
    """

    name = "transition"
    suffixes = {0: "s-t-r", 1: "s-t-f"}
    min_window = 2
    inject_from_frame = 1
    untestable_proofs = False

    def collapse(self, circuit: Circuit) -> List[Fault]:
        # no sound gate-local equivalences: a slow input pin and a slow
        # gate output delay *different* transitions.  Dedupe + sort only.
        return sorted(set(self.full_faults(circuit)))


_MODELS: Dict[str, FaultModel] = {}


def register_fault_model(model: FaultModel) -> FaultModel:
    """Register ``model`` under ``model.name`` (idempotent by name)."""
    if not model.name:
        raise FaultModelError("fault model must have a name")
    _MODELS[model.name] = model
    _MODEL_NAMES.add(model.name)
    for stuck, suffix in model.suffixes.items():
        _SUFFIX[(model.name, stuck)] = suffix
        _PARSE.setdefault(suffix, (model.name, stuck))
    return model


def resolve_fault_model(name: str) -> FaultModel:
    """Look up a registered fault model by name."""
    try:
        return _MODELS[name]
    except KeyError:
        raise FaultModelError(
            f"unknown fault model {name!r} "
            f"(registered: {', '.join(sorted(_MODELS))})"
        ) from None


def fault_model_names() -> List[str]:
    """Names of all registered fault models, sorted."""
    return sorted(_MODELS)


register_fault_model(StuckAtModel())
register_fault_model(TransitionModel())
