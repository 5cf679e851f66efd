"""Tests of the end-to-end CAT flow (Fig. 1)."""

import pytest

from repro.anafault import CampaignSettings, ToleranceSettings
from repro.cat import CATFlow


@pytest.fixture(scope="module")
def cat_result(vco_layout_pair):
    circuit, layout = vco_layout_pair
    return CATFlow(circuit, layout).extract_faults()


class TestFaultExtractionFlow:
    def test_funnel_shrinks(self, cat_result):
        sizes = cat_result.fault_list_sizes()
        assert sizes["all_faults"] == 152
        assert sizes["all_faults"] > sizes["l2rfm"] > sizes["glrfm"]

    def test_reduction_is_substantial(self, cat_result):
        assert cat_result.reduction_vs_schematic() > 0.25

    def test_lvs_clean(self, cat_result):
        assert cat_result.lvs.is_clean

    def test_realistic_faults_are_ranked(self, cat_result):
        probabilities = [f.probability for f in cat_result.realistic_faults]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_composition_dominated_by_bridges(self, cat_result):
        counts = cat_result.realistic_faults.count_by_kind()
        total = len(cat_result.realistic_faults)
        assert counts["bridge"] / total > 0.4


class TestCampaignFlow:
    def test_small_campaign_runs(self, vco_layout_pair):
        circuit, layout = vco_layout_pair
        campaign = CampaignSettings(
            tstop=1.5e-6, tstep=1.5e-8, observation_nodes=("11",),
            tolerances=ToleranceSettings(2.0, 0.2e-6))
        flow = CATFlow(circuit, layout, campaign=campaign)
        result = flow.run(fault_limit=3)
        assert result.campaign is not None
        assert len(result.campaign.records) == 3
        assert 0.0 <= result.campaign.fault_coverage() <= 1.0

    def test_campaign_with_custom_fault_list(self, vco_layout_pair):
        from repro.lift import FaultList, BridgingFault

        circuit, layout = vco_layout_pair
        faults = FaultList("custom")
        faults.add(BridgingFault(1, probability=1e-7, net_a="1", net_b="5",
                                 origin_layer="metal1"))
        campaign = CampaignSettings(
            tstop=1.5e-6, tstep=1.5e-8, observation_nodes=("11",))
        result = CATFlow(circuit, layout, campaign=campaign).run(
            fault_list=faults)
        assert len(result.campaign.records) == 1
        assert result.campaign.records[0].detected
