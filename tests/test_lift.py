"""Tests for the LIFT fault extraction tool chain."""

import pytest

from repro.circuits import build_cmos_inverter
from repro.errors import FaultError
from repro.lift import (
    BridgingFault,
    FaultExtractor,
    FaultList,
    OpenFault,
    ParametricFault,
    SplitNodeFault,
    StuckOpenFault,
    count_schematic_faults,
    faults_covering_fraction,
    format_ranking,
    l2rfm_fault_list,
    rank_faults,
    schematic_fault_list,
    terminal_index,
    unweighted_fault_coverage,
    weighted_fault_coverage,
)


class TestFaultClasses:
    def test_terminal_index(self):
        assert terminal_index("drain", 4) == 0
        assert terminal_index("gate", 4) == 1
        assert terminal_index("source", 4) == 2
        assert terminal_index("bulk", 4) == 3
        assert terminal_index("pos", 2) == 0
        assert terminal_index("neg", 2) == 1

    def test_terminal_index_invalid(self):
        with pytest.raises(FaultError):
            terminal_index("emitter", 4)

    def test_bridge_canonical_order(self):
        fault = BridgingFault(1, net_a="9", net_b="5")
        assert (fault.net_a, fault.net_b) == ("5", "9")

    def test_bridge_same_net_rejected(self):
        with pytest.raises(FaultError):
            BridgingFault(1, net_a="5", net_b="5")

    def test_bridge_label_matches_paper_style(self):
        fault = BridgingFault(339, origin_layer="metal1", net_a="1", net_b="5")
        assert fault.label() == "#339 BRI metal1_short 1->5"

    def test_categories(self):
        assert BridgingFault(1, net_a="a", net_b="b", scope="local").category == "local short"
        assert BridgingFault(1, net_a="a", net_b="b").category == "global short"
        assert OpenFault(1, device="M1", terminal="gate").category == "local open"
        assert SplitNodeFault(1, net="n", group_b=(("M1", "gate"),)).category == "split node"
        assert StuckOpenFault(1, device="M1").category == "transistor stuck open"

    def test_split_needs_group(self):
        with pytest.raises(FaultError):
            SplitNodeFault(1, net="n", group_b=())

    def test_signatures_for_merging(self):
        a = BridgingFault(1, net_a="x", net_b="y")
        b = BridgingFault(99, net_a="y", net_b="x")
        assert a.signature() == b.signature()


class TestFaultList:
    def _sample(self):
        faults = FaultList("sample")
        faults.add(BridgingFault(1, probability=3e-8, net_a="a", net_b="b"))
        faults.add(BridgingFault(2, probability=1e-8, net_a="a", net_b="c"))
        faults.add(StuckOpenFault(3, probability=5e-9, device="M1"))
        faults.add(OpenFault(4, probability=2e-9, device="M2", terminal="gate"))
        return faults

    def test_counts(self):
        faults = self._sample()
        assert len(faults) == 4
        assert faults.count_by_kind()["bridge"] == 2

    def test_sorted_and_top(self):
        faults = self._sample().sorted_by_probability()
        assert faults[0].fault_id == 1
        assert len(faults.top(2)) == 2

    @pytest.mark.parametrize("count", [-1, -3])
    def test_top_refuses_a_negative_count(self, count):
        with pytest.raises(FaultError, match=f"got {count}"):
            self._sample().top(count)

    def test_filter_probability(self):
        assert len(self._sample().filter_probability(1e-8)) == 2

    def test_by_id(self):
        assert self._sample().by_id(3).device == "M1"
        with pytest.raises(FaultError):
            self._sample().by_id(99)

    def test_merge_equivalent(self):
        faults = FaultList("dup")
        faults.add(BridgingFault(1, probability=1e-8, net_a="a", net_b="b"))
        faults.add(BridgingFault(7, probability=2e-8, net_a="b", net_b="a"))
        merged = faults.merge_equivalent()
        assert len(merged) == 1
        assert merged[0].probability == pytest.approx(3e-8)
        assert merged[0].fault_id == 1

    def test_total_probability(self):
        assert self._sample().total_probability() == pytest.approx(4.7e-8)

    def test_summary_text(self):
        text = self._sample().summary()
        assert "4 faults" in text and "2 bridge" in text

    def test_serialisation_roundtrip(self):
        faults = self._sample()
        faults.add(SplitNodeFault(5, probability=1e-9, net="n8",
                                  group_b=(("M17", "gate"), ("M18", "gate"))))
        faults.add(ParametricFault(6, probability=0.0, device="C1",
                                   parameter="value", relative_change=-0.3))
        text = faults.dumps()
        restored = FaultList.loads(text)
        assert len(restored) == len(faults)
        for original, loaded in zip(faults, restored):
            assert original.signature() == loaded.signature()
            assert loaded.probability == pytest.approx(original.probability)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "faults.rfm"
        self._sample().dump(path)
        restored = FaultList.load(path)
        assert len(restored) == 4

    def test_bad_record_raises(self):
        with pytest.raises(FaultError):
            FaultList.loads("FAULT 1 BOGUS p=1e-9\n")


class TestWeightsAndInterchange:
    def test_weight_meta_round_trip(self):
        faults = FaultList.from_faults(
            [BridgingFault(1, probability=1e-6, weight=2.5e-7,
                           net_a="a", net_b="b"),
             OpenFault(2, probability=3e-7, device="M1", terminal="gate")],
            name="weighted")
        text = faults.dumps()
        assert "* meta weight.1=2.5e-07" in text
        assert "weight.2" not in text
        loaded = FaultList.loads(text)
        assert loaded[0].weight == pytest.approx(2.5e-7)
        assert loaded[1].weight is None
        assert loaded.dumps() == text

    def test_orphan_and_malformed_weight_metas_survive(self):
        faults = FaultList.from_faults(
            [BridgingFault(1, probability=1e-6, net_a="a", net_b="b")])
        faults.metadata["weight.99"] = "1e-06"
        faults.metadata["weight.x"] = "2"
        faults.metadata["weight.1"] = "notanumber"
        text = faults.dumps()
        loaded = FaultList.loads(text)
        # None of the entries bind: the fault keeps no weight and every
        # line survives the round trip for the lint rule to point at.
        assert loaded[0].weight is None
        for key in ("weight.99", "weight.x", "weight.1"):
            assert key in loaded.metadata
        assert loaded.dumps() == text

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999", "-1"])
    def test_impossible_probability_is_refused(self, value):
        text = FaultList.from_faults(
            [BridgingFault(1, probability=1e-6, net_a="a", net_b="b")],
            name="bad p").dumps()
        assert "p=1e-06" in text
        with pytest.raises(FaultError, match=rf"line 2: .*p={value} is not"):
            FaultList.loads(text.replace("p=1e-06", f"p={value}"))

    def test_multi_word_description_round_trip(self):
        faults = FaultList.from_faults(
            [BridgingFault(3, probability=1e-6, net_a="out", net_b="in",
                           description="bridge in-out on metal1")])
        text = faults.dumps()
        loaded = FaultList.loads(text)
        assert loaded[0].description == "bridge in-out on metal1"
        assert loaded.dumps() == text

    def test_from_faults_refuses_duplicate_ids(self):
        duplicates = [
            BridgingFault(1, probability=1e-6, net_a="a", net_b="b"),
            OpenFault(1, probability=1e-6, device="M1", terminal="gate")]
        with pytest.raises(FaultError):
            FaultList.from_faults(duplicates)
        renumbered = FaultList.from_faults(duplicates, renumber=True)
        assert [f.fault_id for f in renumbered] == [1, 2]

    def test_effective_weight_prefers_explicit_weight(self):
        fault = BridgingFault(1, probability=0.25, net_a="a", net_b="b")
        assert fault.effective_weight == pytest.approx(0.25)
        fault.weight = 0.5
        assert fault.effective_weight == pytest.approx(0.5)
        fault.weight = 0.0
        assert fault.effective_weight == 0.0

    def test_merge_equivalent_aggregates_weights(self):
        faults = FaultList("dup")
        faults.add(BridgingFault(1, probability=1e-8, weight=1e-6,
                                 net_a="a", net_b="b"))
        faults.add(BridgingFault(2, probability=2e-8, weight=2e-6,
                                 net_a="b", net_b="a"))
        merged = faults.merge_equivalent()
        assert len(merged) == 1
        assert merged[0].weight == pytest.approx(3e-6)
        # One-sided weight: the unweighted member contributes zero weight
        # (the merge never invents weight from probability).
        faults.add(BridgingFault(3, probability=4e-8, net_a="a", net_b="b"))
        merged = faults.merge_equivalent()
        assert merged[0].weight == pytest.approx(3e-6)
        assert merged[0].probability == pytest.approx(7e-8)

    def test_total_weight_uses_effective_weights(self):
        faults = FaultList("mix")
        faults.add(BridgingFault(1, probability=1e-8, weight=5e-7,
                                 net_a="a", net_b="b"))
        faults.add(OpenFault(2, probability=2e-8, device="M1",
                             terminal="gate"))
        assert faults.total_weight() == pytest.approx(5e-7 + 2e-8)


class TestSchematicFaults:
    def test_vco_counts_match_paper(self, vco_circuit):
        counts = count_schematic_faults(vco_circuit)
        assert counts["opens"] == 79
        assert counts["shorts"] == 73
        assert counts["total"] == 152

    def test_environment_devices_excluded(self, vco_circuit):
        faults = schematic_fault_list(vco_circuit)
        devices = {f.device for f in faults if isinstance(f, OpenFault)}
        assert "RVDD" not in devices and "RCTRL" not in devices

    def test_diode_connected_devices_have_no_gate_drain_short(self, vco_circuit):
        faults = schematic_fault_list(vco_circuit)
        diode_connected = vco_circuit.metadata["diode_connected"]
        for name in diode_connected:
            device = vco_circuit.device(name)
            drain, gate = device.nodes[0], device.nodes[1]
            assert drain == gate  # designed connection, not a fault

    def test_inverter_counts(self):
        counts = count_schematic_faults(build_cmos_inverter())
        # 2 transistors: 6 opens + 6 shorts.
        assert counts["opens"] == 6
        assert counts["shorts"] == 6


class TestL2RFM:
    def test_reduces_schematic_list(self, vco_circuit):
        l2 = l2rfm_fault_list(vco_circuit)
        total = count_schematic_faults(vco_circuit)["total"]
        assert 0 < len(l2) < total

    def test_all_faults_weighted(self, vco_circuit):
        l2 = l2rfm_fault_list(vco_circuit)
        assert all(f.probability > 0.0 for f in l2)

    def test_sorted_by_probability(self, vco_circuit):
        l2 = l2rfm_fault_list(vco_circuit)
        probabilities = [f.probability for f in l2]
        assert probabilities == sorted(probabilities, reverse=True)


class TestGLRFM:
    def test_fault_list_nonempty(self, vco_fault_list):
        assert len(vco_fault_list) > 50

    def test_all_probabilities_above_threshold(self, vco_fault_list):
        assert all(f.probability >= 1e-9 for f in vco_fault_list)

    def test_bridges_dominate(self, vco_fault_list):
        counts = vco_fault_list.count_by_kind()
        assert counts["bridge"] > counts.get("open", 0)
        assert counts["bridge"] > counts.get("stuck_open", 0)

    def test_contains_supply_to_cap_bridge(self, vco_fault_list):
        """The paper's example fault #339 is a metal-1 bridge between the
        supply (net 1) and the capacitor node (net 5)."""
        bridges = [f for f in vco_fault_list.by_kind("bridge")
                   if {f.net_a, f.net_b} == {"1", "5"}]
        assert bridges and bridges[0].origin_layer == "metal1"

    def test_no_supply_to_supply_bridge(self, vco_fault_list):
        assert not [f for f in vco_fault_list.by_kind("bridge")
                    if {f.net_a, f.net_b} == {"0", "1"}]

    def test_nets_exist_in_schematic(self, vco_circuit, vco_fault_list):
        for fault in vco_fault_list.by_kind("bridge"):
            assert vco_circuit.has_node(fault.net_a)
            assert vco_circuit.has_node(fault.net_b)

    def test_devices_exist_in_schematic(self, vco_circuit, vco_fault_list):
        for fault in vco_fault_list:
            device = getattr(fault, "device", None)
            if device:
                assert device in vco_circuit

    def test_stuck_open_only_on_narrow_devices(self, vco_circuit, vco_fault_list):
        """Wide devices have redundant contacts; contact-induced stuck-opens
        should concentrate on the narrow (single-contact) transistors."""
        narrow = {d.name for d in vco_circuit.devices
                  if hasattr(d, "w") and getattr(d, "w", 1.0) < 5e-6}
        contact_stuck = [f for f in vco_fault_list.by_kind("stuck_open")
                         if f.origin_layer.startswith("contact")]
        assert all(f.device in narrow for f in contact_stuck)

    def test_reduction_against_schematic(self, vco_circuit, vco_fault_list):
        total = count_schematic_faults(vco_circuit)["total"]
        selected = faults_covering_fraction(vco_fault_list, 0.95)
        assert len(selected) < total

    def test_lower_threshold_yields_more_faults(self, vco_layout_pair,
                                                vco_extraction, vco_lvs):
        circuit, layout = vco_layout_pair
        strict = FaultExtractor(layout, vco_extraction, circuit, vco_lvs,
                                min_probability=1e-7).run()
        loose = FaultExtractor(layout, vco_extraction, circuit, vco_lvs,
                               min_probability=1e-10).run()
        assert len(loose) >= len(strict)


class TestRanking:
    def _faults(self):
        faults = FaultList("r")
        faults.add(BridgingFault(1, probability=6e-8, net_a="a", net_b="b"))
        faults.add(BridgingFault(2, probability=3e-8, net_a="a", net_b="c"))
        faults.add(BridgingFault(3, probability=1e-8, net_a="b", net_b="c"))
        return faults

    def test_rank_order_and_cumulative(self):
        ranking = rank_faults(self._faults())
        assert [r.fault.fault_id for r in ranking] == [1, 2, 3]
        assert ranking[-1].cumulative_fraction == pytest.approx(1.0)
        assert ranking[0].cumulative_fraction == pytest.approx(0.6)

    def test_covering_fraction(self):
        selected = faults_covering_fraction(self._faults(), 0.6)
        assert len(selected) == 1
        selected = faults_covering_fraction(self._faults(), 0.7)
        assert len(selected) == 2

    def test_weighted_coverage(self):
        faults = self._faults()
        assert weighted_fault_coverage(faults, {1}) == pytest.approx(0.6)
        assert weighted_fault_coverage(faults, {1, 2, 3}) == pytest.approx(1.0)
        assert unweighted_fault_coverage(faults, {1}) == pytest.approx(1 / 3)

    def test_format_ranking(self):
        text = format_ranking(self._faults())
        assert "rank" in text and "bridge" in text
