"""The fault-model registry, parse_fault, and fault_site_known edges.

Covers the model-qualified fault grammar (``parse_fault`` as the exact
inverse of ``str(Fault)``), the registry surface engines dispatch on,
transition enumeration/collapse, and the ``fault_site_known`` edge cases
around branch pins and primary-output stems.
"""

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import (
    DEFAULT_FAULT_MODEL,
    Fault,
    FaultModelError,
    fault_model_names,
    fault_site_known,
    full_fault_list,
    parse_fault,
    resolve_fault_model,
)


class TestParseFault:
    def test_round_trip_every_fault_both_models(self):
        c = s27()
        for model in fault_model_names():
            for fault in full_fault_list(c, model):
                assert parse_fault(str(fault)) == fault

    def test_stem_forms(self):
        assert parse_fault("G5 s-a-1") == Fault("G5", 1)
        assert parse_fault("G5 s-t-r") == Fault("G5", 0, model="transition")
        assert parse_fault("G5 s-t-f") == Fault("G5", 1, model="transition")

    def test_branch_forms(self):
        assert parse_fault("G5->G9.1 s-a-0") == Fault(
            "G5", 0, gate="G9", pin=1
        )
        assert parse_fault("a->y.0 s-t-f") == Fault(
            "a", 1, gate="y", pin=0, model="transition"
        )

    def test_net_names_with_dots_and_spaces_trimmed(self):
        fault = Fault("u1.q", 0, gate="u2.y", pin=3)
        assert parse_fault(f"  {fault}  ") == fault

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "G5",
            "G5 s-a-2",
            "G5 s-x-0",
            " s-a-0",
            "G5->G9 s-a-0",  # branch without a pin
            "G5->G9.x s-a-0",  # non-numeric pin
            "G5->G9.-1 s-a-0",  # negative pin
            "G5->.0 s-a-0",  # empty gate
            "->G9.0 s-a-0",  # empty net
        ],
    )
    def test_rejections(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)


class TestRegistry:
    def test_names(self):
        assert fault_model_names() == ["stuck_at", "transition"]

    def test_unknown_model_rejected(self):
        with pytest.raises(FaultModelError):
            resolve_fault_model("delay")
        with pytest.raises(FaultModelError):
            Fault("G1", 0, model="delay")

    def test_stuck_at_shape(self):
        m = resolve_fault_model(DEFAULT_FAULT_MODEL)
        assert m.min_window == 1
        assert m.inject_from_frame == 0
        assert m.untestable_proofs

    def test_transition_shape(self):
        m = resolve_fault_model("transition")
        assert m.min_window == 2
        assert m.inject_from_frame == 1
        assert not m.untestable_proofs

    def test_transition_universe_mirrors_stuck_at_sites(self):
        c = s27()
        sa = {(f.net, f.stuck, f.gate, f.pin) for f in full_fault_list(c)}
        tr = {
            (f.net, f.stuck, f.gate, f.pin)
            for f in full_fault_list(c, "transition")
        }
        assert sa == tr

    def test_transition_collapse_is_dedupe_only(self):
        c = s27()
        collapsed = collapse_faults(c, "transition")
        assert collapsed == sorted(set(full_fault_list(c, "transition")))
        # strictly larger than the equivalence-collapsed stuck-at list
        assert len(collapsed) > len(collapse_faults(c))

    def test_models_never_mix_in_one_universe(self):
        c = s27()
        for model in fault_model_names():
            assert all(
                f.model == model for f in collapse_faults(c, model)
            )


def po_stem_circuit() -> Circuit:
    """``a -> y`` where ``a``'s only reader is ``y`` but ``a`` is a PO.

    The PO observes the stem directly, so the branch ``a->y.0`` is a
    distinct (and valid) fault site despite fanout count 1.
    """
    c = Circuit("po_stem")
    c.add_input("a")
    c.add_gate("y", GateType.NOT, ["a"])
    c.add_output("a")
    c.add_output("y")
    return c


class TestFaultSiteKnown:
    def test_pin_beyond_gate_input_count(self):
        c = s27()
        gate = next(iter(c.gates.values()))
        net = gate.inputs[0]
        beyond = len(gate.inputs)
        fault = Fault(net, 0, gate=gate.output, pin=beyond)
        assert not fault_site_known(c, fault)
        assert not fault_site_known(
            c, Fault(net, 0, gate=gate.output, pin=beyond + 7)
        )

    def test_branch_into_gate_fed_by_po_net(self):
        c = po_stem_circuit()
        branch = Fault("a", 0, gate="y", pin=0)
        assert fault_site_known(c, branch)
        # and enumeration agrees: the PO is the second observation point
        assert branch in full_fault_list(c)
        tr = Fault("a", 0, gate="y", pin=0, model="transition")
        assert fault_site_known(c, tr)
        assert tr in full_fault_list(c, "transition")

    def test_stem_with_stray_pin_rejected(self):
        c = s27()
        assert fault_site_known(c, Fault("G0", 0))
        assert not fault_site_known(c, Fault("G0", 0, pin=0))

    def test_model_does_not_change_site_validity(self):
        c = s27()
        for fault in full_fault_list(c, "transition"):
            assert fault_site_known(c, fault)
