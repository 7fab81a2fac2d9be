"""CampaignSpec serialization, hashing, and validation."""

import pytest

from repro.campaign import CampaignError, CampaignSpec, derive_seed


def spec(**overrides):
    base = dict(circuits=("s27",), name="t", seed=7)
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_needs_circuits(self):
        with pytest.raises(CampaignError):
            CampaignSpec(circuits=())

    def test_shard_size_positive(self):
        with pytest.raises(CampaignError):
            spec(shard_size=0)

    def test_passes_positive(self):
        with pytest.raises(CampaignError):
            spec(passes=0)

    def test_max_attempts_positive(self):
        with pytest.raises(CampaignError):
            spec(max_attempts=0)

    def test_justify_depth_positive(self):
        with pytest.raises(CampaignError):
            spec(justify_depth=0)

    @pytest.mark.parametrize("backend", ["numpy", "bogus", "codegen", "event"])
    def test_unknown_backend_rejected(self, backend):
        # the code picks each job's simulator: a spec naming any backend,
        # even a registered one, fails up front; only null is accepted
        data = spec().to_dict()
        assert data["backend"] is None
        assert CampaignSpec.from_dict(data) == spec()
        data["backend"] = backend
        with pytest.raises(CampaignError, match=f"simulation backend '{backend}'"):
            CampaignSpec.from_dict(data)
        with pytest.raises(TypeError):
            spec(backend=backend)

    @pytest.mark.parametrize("field, value, message", [
        ("width", 0, "width must be at least 1"),
        ("seq_len", -3, "seq_len must be at least 0"),
        ("backtracks", -1, "backtracks must be at least 0"),
        ("time_scale", 0, "time_scale must be positive"),
        ("time_scale", -1, "time_scale must be positive"),
        ("item_timeout_s", 0, "item_timeout_s must be positive"),
        ("fault_limit", 0, "fault_limit must be at least 1"),
        ("synthetic_item_seconds", -0.5,
         "synthetic_item_seconds must be at least 0"),
    ])
    def test_out_of_range_numbers_rejected(self, field, value, message):
        with pytest.raises(CampaignError, match=message):
            spec(**{field: value})
        # the JSON path (spec files, journal headers, POST /jobs) too
        data = spec().to_dict()
        data[field] = value
        with pytest.raises(CampaignError, match=message):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("width", 1), ("backtracks", 0), ("fault_limit", 1),
        ("synthetic_item_seconds", 0.0),
    ])
    def test_boundary_values_accepted(self, field, value):
        # None, the default of every optional number, is accepted by
        # every other test in this file
        assert getattr(spec(**{field: value}), field) == value

    def test_list_circuits_become_tuple(self):
        assert spec(circuits=["s27", "s298"]).circuits == ("s27", "s298")


class TestSerialization:
    def test_roundtrip(self):
        original = spec(fault_limit=10, item_timeout_s=1.5)
        assert CampaignSpec.from_dict(original.to_dict()) == original

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "spec.json")
        original = spec()
        original.save(path)
        assert CampaignSpec.load(path) == original

    def test_rejects_unknown_keys(self):
        data = spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(CampaignError, match="bogus"):
            CampaignSpec.from_dict(data)

    def test_rejects_wrong_schema(self):
        data = spec().to_dict()
        data["schema"] = "other/v9"
        with pytest.raises(CampaignError, match="schema"):
            CampaignSpec.from_dict(data)

    def test_rejects_non_dict(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict([1, 2])


class TestHash:
    def test_stable_across_json_roundtrip(self):
        original = spec()
        parsed = CampaignSpec.from_dict(original.to_dict())
        assert parsed.spec_hash() == original.spec_hash()

    def test_changes_with_result_affecting_fields(self):
        assert spec(seed=1).spec_hash() != spec(seed=2).spec_hash()
        assert spec(shard_size=8).spec_hash() != spec(shard_size=9).spec_hash()

    def test_pinned_hash_keeps_existing_journal_identities(self):
        # journals and service job ids are keyed by this hash: a change
        # would orphan every existing one
        assert (
            CampaignSpec(circuits=("s27",), seed=3).spec_hash()
            == "44ba01da4f6681dc"
        )

    def test_default_justify_depth_not_serialized(self):
        # specs predating the field keep their hash and journal identity
        data = spec().to_dict()
        assert "justify_depth" not in data
        deep = spec(justify_depth=3)
        assert deep.to_dict()["justify_depth"] == 3
        assert deep.spec_hash() != spec().spec_hash()
        assert CampaignSpec.from_dict(
            deep.to_dict()
        ).spec_hash() == deep.spec_hash()


class TestSchedule:
    def test_gahitec_schedule_length(self, s27_circuit):
        assert len(spec(passes=2).schedule_for(s27_circuit)) == 2

    def test_baseline_schedule(self, s27_circuit):
        schedule = spec(baseline=True).schedule_for(s27_circuit)
        assert all(p.justification == "deterministic" for p in schedule)

    def test_justify_depth_reaches_every_pass(self, s27_circuit):
        for overrides in ({}, {"baseline": True}):
            schedule = spec(justify_depth=3, **overrides).schedule_for(
                s27_circuit
            )
            assert all(p.justify_depth == 3 for p in schedule)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "a/000") == derive_seed(3, "a/000")

    def test_varies_with_token_and_base(self):
        assert derive_seed(3, "a/000") != derive_seed(3, "a/001")
        assert derive_seed(3, "a/000") != derive_seed(4, "a/000")

    def test_non_negative_31_bit(self):
        for base in (0, 1, 2**40, -5):
            value = derive_seed(base, "x")
            assert 0 <= value < 2**31
