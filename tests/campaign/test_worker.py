"""Work-item execution: determinism, timeouts, and drift detection."""

from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CampaignWarmState,
    build_items,
    run_item,
)


def spec(**overrides):
    base = dict(circuits=("s27",), seed=3, shard_size=8, passes=2)
    base.update(overrides)
    return CampaignSpec(**base)


_TIME_KEYS = {"cpu_time_s", "wall_time_s", "time_s", "kernel_compile_s"}


def _strip_times(value):
    """Remove wall/CPU duration fields (the only nondeterministic ones)."""
    if isinstance(value, dict):
        return {
            k: _strip_times(v)
            for k, v in value.items()
            if k not in _TIME_KEYS
        }
    if isinstance(value, list):
        return [_strip_times(v) for v in value]
    return value


def run(s, item, **kwargs):
    return run_item(s, item, CampaignWarmState.build(s), **kwargs)


def items_of(s):
    """The catalogue, read from the spec's warm state."""
    return build_items(s, CampaignWarmState.build(s))


class TestRunItem:
    def test_produces_detections_and_report(self):
        s = spec()
        outcome = run(s, items_of(s)[0])
        assert outcome.total_faults == 8
        assert outcome.detected
        assert outcome.vectors and outcome.blocks[0] == 0
        assert outcome.report["schema"] == "repro-run-report/v1"
        assert not outcome.timed_out

    def test_same_item_same_payload(self):
        s = spec()
        item = items_of(s)[0]
        a = _strip_times(run(s, item).to_dict())
        b = _strip_times(run(s, item).to_dict())
        assert a == b

    def test_seed_changes_payload_fields(self):
        s = spec()
        item = items_of(s)[0]
        other = replace(item, seed=item.seed + 1)
        assert run(s, item).seed != run(s, other).seed

    def test_fault_hash_drift_rejected(self):
        s = spec()
        item = replace(items_of(s)[0], fault_hash="0" * 12)
        with pytest.raises(CampaignError, match="drifted"):
            run(s, item)

    def test_timeout_with_fake_clock(self):
        s = spec(item_timeout_s=5.0)
        item = items_of(s)[0]
        ticks = [0.0]

        def clock():
            ticks[0] += 3.0  # two reads cross the 5 s deadline
            return ticks[0]

        outcome = run(s, item, clock=clock)
        assert outcome.timed_out

    def test_synthetic_drill_mode_skips_atpg(self):
        s = spec(synthetic_item_seconds=0.0)
        outcome = run(s, items_of(s)[0])
        assert outcome.vectors == [] and outcome.detected == []
        assert outcome.total_faults == 8
