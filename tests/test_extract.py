"""Tests for connectivity extraction, device recognition and LVS."""

import pytest

from repro.circuits import build_cmos_inverter
from repro.errors import LVSError
from repro.extract import (
    ConnectivityExtractor,
    ConnectivityGraph,
    DeviceExtractor,
    compare,
    extract_netlist,
)
from repro.layout import CONTACT, Layout, METAL1, METAL2, NDIFF, POLY, VIA, generate_layout
from repro.spice import Mosfet


class TestConnectivitySmall:
    def _two_wire_layout(self):
        layout = Layout("wires")
        layout.add_rect(METAL1, 0, 0, 10, 3)
        layout.add_rect(METAL1, 0, 6, 10, 9)
        layout.add_label(METAL1, 1, 1, "a")
        layout.add_label(METAL1, 1, 7, "b")
        return layout

    def test_disjoint_wires_are_two_nets(self):
        result = ConnectivityExtractor(self._two_wire_layout()).run()
        assert len(result.nets) == 2
        assert set(result.net_names()) == {"a", "b"}

    def test_touching_wires_merge(self):
        layout = self._two_wire_layout()
        layout.add_rect(METAL1, 0, 3, 2, 6)  # bridge between the two wires
        result = ConnectivityExtractor(layout).run()
        assert len(result.nets) == 1

    def test_via_connects_layers(self):
        layout = Layout("via")
        layout.add_rect(METAL1, 0, 0, 4, 4)
        layout.add_rect(METAL2, 0, 0, 4, 4)
        result = ConnectivityExtractor(layout).run()
        assert len(result.nets) == 2  # overlapping but no via
        layout.add_rect(VIA, 1, 1, 3, 3)
        result = ConnectivityExtractor(layout).run()
        assert len(result.nets) == 1

    def test_contact_connects_poly_to_metal(self):
        layout = Layout("contact")
        layout.add_rect(POLY, 0, 0, 4, 4)
        layout.add_rect(METAL1, 0, 0, 4, 4)
        layout.add_rect(CONTACT, 1, 1, 3, 3)
        result = ConnectivityExtractor(layout).run()
        assert len(result.nets) == 1

    def test_contact_does_not_connect_metal2(self):
        layout = Layout("contact2")
        layout.add_rect(METAL2, 0, 0, 4, 4)
        layout.add_rect(METAL1, 0, 0, 4, 4)
        layout.add_rect(CONTACT, 1, 1, 3, 3)
        result = ConnectivityExtractor(layout).run()
        assert len(result.nets) == 2

    def test_diffusion_split_by_gate(self):
        layout = Layout("transistor")
        layout.add_rect(NDIFF, 0, 0, 20, 5)
        layout.add_rect(POLY, 9, -2, 11, 7)
        result = ConnectivityExtractor(layout).run()
        # Two diffusion islands + one poly net = 3 nets, 1 channel.
        assert len(result.nets) == 3
        assert len(result.channels) == 1
        channel = result.channels[0]
        assert channel.rect.width == pytest.approx(2.0)
        assert channel.rect.height == pytest.approx(5.0)

    def test_anonymous_net_naming(self):
        layout = Layout("anon")
        layout.add_rect(METAL1, 0, 0, 2, 2)
        result = ConnectivityExtractor(layout).run()
        assert result.nets[0].name.startswith("n$")


class TestConnectivityGraph:
    """The orders below are part of the fault-list output (which terminal
    of a split net is reported); they were recorded from the graph library
    the extractor used before, on the same graph."""

    def _graph(self):
        graph = ConnectivityGraph()
        for node in range(20):
            graph.add_node(node)
        for u, v in [(3, 11), (11, 19), (19, 27), (3, 27), (27, 35),
                     (35, 3), (0, 1), (1, 2), (5, 6)]:
            graph.add_edge(u, v)
        return graph

    def test_components_and_edges_in_insertion_order(self):
        graph = self._graph()
        assert [sorted(c) for c in graph.connected_components()][:4] == [
            [0, 1, 2], [3, 11, 19, 27, 35], [4], [5, 6]]
        assert [(u, v) for u, v, _ in graph.edges()] == [
            (0, 1), (1, 2), (3, 11), (3, 27), (3, 35), (5, 6), (11, 19),
            (19, 27), (27, 35)]

    def test_small_subgraph_follows_set_order(self):
        net = self._graph().subgraph([3, 11, 19, 27, 35])
        assert list(net) == [3, 35, 11, 19, 27]

    def test_cuts_skip_pieces_and_edges_without_copying(self):
        net = self._graph().subgraph([3, 11, 19, 27, 35])
        assert [list(c) for c in net.connected_components([27])] == [
            [11, 35, 3, 19]]
        assert [list(c) for c in net.connected_components(
            (), [(3, 11), (19, 11)])] == [[27, 35, 3, 19], [11]]
        assert [sorted(c) for c in net.connected_components()] == [
            [3, 11, 19, 27, 35]]

    def test_readding_an_edge_updates_its_attributes_in_place(self):
        graph = ConnectivityGraph()
        graph.add_edge(1, 2, cut="a")
        graph.add_edge(2, 3)
        graph.add_edge(2, 1, cut="b", cut_layer="via")
        assert list(graph.edges()) == [
            (1, 2, {"cut": "b", "cut_layer": "via"}), (2, 3, {})]


class TestDeviceRecognition:
    def test_mosfet_dimensions(self):
        layout = Layout("nmos")
        layout.add_rect(NDIFF, 0, 0, 20, 8)
        layout.add_rect(POLY, 9, -2, 11, 10)
        connectivity = ConnectivityExtractor(layout).run()
        mosfets, _ = DeviceExtractor(layout, connectivity).run()
        assert len(mosfets) == 1
        assert mosfets[0].kind == "nmos"
        assert mosfets[0].width_um == pytest.approx(8.0)
        assert mosfets[0].length_um == pytest.approx(2.0)

    def test_inverter_extraction_counts(self):
        circuit = build_cmos_inverter()
        layout = generate_layout(circuit)
        result = extract_netlist(layout)
        assert len(result.mosfets) == 2
        kinds = sorted(m.kind for m in result.mosfets)
        assert kinds == ["nmos", "pmos"]

    def test_vco_extraction_counts(self, vco_extraction):
        summary = vco_extraction.summary()
        assert summary["mosfets"] == 26
        assert summary["capacitors"] == 1
        assert summary["nets"] == 16

    def test_vco_extracted_net_names_match_schematic(self, vco_extraction):
        expected = {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
                    "11", "12", "13", "14", "15"}
        assert set(vco_extraction.net_names) == expected

    def test_extracted_capacitance_close_to_schematic(self, vco_extraction):
        cap = vco_extraction.capacitors[0]
        assert cap.capacitance == pytest.approx(6e-12, rel=0.2)

    def test_extracted_widths_match_schematic(self, vco_layout_pair, vco_extraction, vco_lvs):
        circuit, _ = vco_layout_pair
        for extracted in vco_extraction.mosfets:
            schematic_name = vco_lvs.device_map[extracted.name]
            device = circuit.device(schematic_name)
            assert extracted.width_um == pytest.approx(device.w * 1e6, rel=1e-6)
            assert extracted.length_um == pytest.approx(device.l * 1e6, rel=1e-6)


class TestLVS:
    def test_vco_lvs_clean(self, vco_lvs):
        assert vco_lvs.is_clean, vco_lvs.summary()
        assert len(vco_lvs.device_map) == 27  # 26 MOSFETs + 1 capacitor

    def test_lvs_detects_missing_device(self, vco_layout_pair, vco_extraction):
        circuit, _ = vco_layout_pair
        broken = circuit.clone()
        broken.add(Mosfet("M99", "5", "8", "0", "0", "nch", w=4e-6, l=2e-6))
        report = compare(vco_extraction.circuit, broken)
        assert not report.is_clean
        assert "M99" in report.unmatched_schematic

    def test_lvs_detects_extra_device(self, vco_layout_pair, vco_extraction):
        circuit, _ = vco_layout_pair
        extracted = vco_extraction.circuit.clone()
        extracted.add(Mosfet("mx99", "5", "8", "0", "0", "nch", w=4e-6, l=2e-6))
        report = compare(extracted, circuit)
        assert not report.is_clean
        assert "mx99" in report.unmatched_extracted

    def test_lvs_strict_raises(self, vco_layout_pair, vco_extraction):
        circuit, _ = vco_layout_pair
        broken = circuit.clone()
        broken.device("M11").nodes[1] = "9"  # move the gate to another net
        with pytest.raises(LVSError):
            compare(vco_extraction.circuit, broken, strict=True)

    def test_lvs_summary_text(self, vco_lvs):
        assert "CLEAN" in vco_lvs.summary()


class TestExtractedCircuitSimulates:
    def test_extracted_vco_oscillates(self, vco_extraction):
        """The netlist extracted from the layout must behave like the
        schematic: attach the same sources and it oscillates."""
        from repro.spice import TransientAnalysis, VoltageSource, Resistor
        from repro.spice.devices import DCShape, PWLShape

        circuit = vco_extraction.circuit.clone()
        circuit.add(VoltageSource("VDD", "1_src", "0",
                                  PWLShape([(0.0, 0.0), (2e-8, 5.0)])))
        circuit.add(Resistor("RVDD", "1_src", "1", 25.0))
        circuit.add(VoltageSource("VCTRL", "2", "0", DCShape(3.0)))
        result = TransientAnalysis(circuit, tstop=3e-6, tstep=1e-8,
                                   use_ic=True).run()
        assert result["11"].oscillates(min_swing=3.0)
