"""Merge stage: cross-shard grading, redundancy dropping, report rollup."""

from repro.campaign import (
    CampaignSpec,
    CampaignWarmState,
    build_items,
    merge_campaign,
    run_item,
    shard_faults,
)


def spec(**overrides):
    base = dict(circuits=("s27",), name="m", seed=3, shard_size=8, passes=2)
    base.update(overrides)
    return CampaignSpec(**base)


def payloads_for(s):
    warm = CampaignWarmState.build(s)
    return {
        item.item_id: run_item(s, item, warm).to_dict()
        for item in build_items(s, warm)
    }


class TestMergeCampaign:
    def test_coverage_at_least_union_of_shards(self):
        s = spec()
        payloads = payloads_for(s)
        result = merge_campaign(s, payloads, CampaignWarmState.build(s))
        merged = result.circuits["s27"]
        shard_detected = set()
        for payload in payloads.values():
            shard_detected.update(payload["detected"])
        assert shard_detected <= set(merged.detected)
        assert merged.total_faults == len(shard_faults(s, "s27"))

    def test_drops_redundant_sequences(self):
        s = spec()
        result = merge_campaign(s, payloads_for(s), CampaignWarmState.build(s))
        merged = result.circuits["s27"]
        assert merged.dropped_sequences > 0
        assert len(merged.blocks) == len(set(merged.blocks))

    def test_result_independent_of_payload_dict_order(self):
        s = spec()
        payloads = payloads_for(s)
        reversed_payloads = dict(reversed(list(payloads.items())))
        a = merge_campaign(s, payloads, CampaignWarmState.build(s))
        b = merge_campaign(s, reversed_payloads, CampaignWarmState.build(s))
        assert a.circuits["s27"].vectors == b.circuits["s27"].vectors
        assert a.circuits["s27"].detected == b.circuits["s27"].detected

    def test_rolled_up_report_carries_merged_truth(self):
        s = spec()
        result = merge_campaign(s, payloads_for(s), CampaignWarmState.build(s))
        report = result.report
        assert report is not None
        assert report.circuit == "campaign:m"
        assert report.total_faults == result.total_faults
        assert report.detected == result.detected
        assert report.vectors == result.vectors
        assert abs(report.fault_coverage - result.fault_coverage) < 1e-9

    def test_missing_items_tolerated(self):
        s = spec()
        payloads = payloads_for(s)
        payloads.pop(sorted(payloads)[0])
        result = merge_campaign(s, payloads, CampaignWarmState.build(s))
        assert result.items_done == len(payloads)
        assert 0.0 < result.fault_coverage <= 1.0

    def test_summary_lines(self):
        s = spec()
        result = merge_campaign(s, payloads_for(s), CampaignWarmState.build(s))
        text = result.summary()
        assert "campaign m" in text and "s27" in text
        digest = result.summary_dict()
        assert digest["circuits"]["s27"]["total_faults"] == 26
