"""Per-fault feature extraction: values, layout, and stability."""

from repro.atpg.scoap import HARD, compute_testability
from repro.circuits import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.policy.features import (
    FEATURE_NAMES,
    fault_features,
    feature_vector,
)
from repro.simulation.compiled import compile_circuit


def fixtures():
    return compile_circuit(s27())


class TestFaultFeatures:
    def test_scoap_features_match_testability(self):
        cc = fixtures()
        meas = compute_testability(cc)
        fault = Fault(net=cc.circuit.inputs[0], stuck=0)
        f = fault_features(cc, fault)
        idx = cc.index[fault.net]
        assert f["cc0"] == float(min(meas.cc0[idx], HARD))
        assert f["cc1"] == float(min(meas.cc1[idx], HARD))
        assert f["co"] == float(min(meas.co[idx], HARD))
        # stuck-at-0 excitation means driving the site to 1
        assert f["excite_cost"] == f["cc1"]
        assert f["detect_cost"] == f["excite_cost"] + f["co"]

    def test_stuck_at_one_excites_with_cc0(self):
        cc = fixtures()
        fault = Fault(net=cc.circuit.inputs[0], stuck=1)
        f = fault_features(cc, fault)
        assert f["excite_cost"] == f["cc0"]
        assert f["stuck"] == 1.0

    def test_pi_and_ff_flags(self):
        cc = fixtures()
        pi_fault = Fault(net=cc.circuit.inputs[0], stuck=0)
        assert fault_features(cc, pi_fault)["is_pi"] == 1.0
        ff_net = next(
            net for net, i in cc.index.items() if i in cc.ff_out
        )
        ff_fault = Fault(net=ff_net, stuck=0)
        f = fault_features(cc, ff_fault)
        assert f["is_ff_out"] == 1.0 and f["is_pi"] == 0.0

    def test_every_feature_name_is_produced(self):
        cc = fixtures()
        fault = collapse_faults(cc.circuit)[0]
        # is_transition is emitted only for transition faults, so
        # stuck-at feature payloads stay byte-identical to pre-field docs
        assert (
            set(fault_features(cc, fault))
            == set(FEATURE_NAMES) - {"is_transition"}
        )

    def test_transition_fault_tagged(self):
        cc = fixtures()
        fault = collapse_faults(cc.circuit, "transition")[0]
        f = fault_features(cc, fault)
        assert f["is_transition"] == 1.0

    def test_branch_fault_records_pin(self):
        cc = fixtures()
        branch = next(
            f for f in collapse_faults(cc.circuit) if f.is_branch
        )
        f = fault_features(cc, branch)
        assert f["is_branch"] == 1.0
        assert f["pin"] == float(branch.pin)


class TestFeatureVector:
    def test_layout_follows_feature_names(self):
        cc = fixtures()
        fault = collapse_faults(cc.circuit)[0]
        f = fault_features(cc, fault)
        vec = feature_vector(f)
        assert vec == [f.get(name, 0.0) for name in FEATURE_NAMES]

    def test_missing_keys_read_zero(self):
        vec = feature_vector({"cc0": 5.0})
        assert vec[0] == 5.0
        assert all(v == 0.0 for v in vec[1:])

    def test_unknown_keys_ignored(self):
        assert feature_vector({"not_a_feature": 9.0}) == [0.0] * len(
            FEATURE_NAMES
        )
