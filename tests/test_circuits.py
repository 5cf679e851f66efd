"""Tests for the reference circuits, in particular the paper's VCO."""

import pytest

from repro.circuits import (
    BLOCKS,
    DIODE_CONNECTED,
    OUTPUT_NODE,
    VCOParameters,
    build_cmos_inverter,
    build_current_mirror,
    build_differential_pair,
    build_rc_lowpass,
    build_schmitt_trigger,
    build_vco,
    nominal_transient_settings,
    transistor_table,
)
from repro.spice import (
    DCSweepAnalysis,
    OperatingPointAnalysis,
    TransientAnalysis,
)
from repro.spice.devices import Mosfet
from repro.spice.netlist import SUPPLY_NETS


class TestVCOStructure:
    def test_blocks_cover_all_transistors(self, vco_circuit):
        names = {name for members in BLOCKS.values() for name in members}
        assert names == {f"M{i}" for i in range(1, 27)}

    def test_transistor_table_consistent(self, vco_circuit):
        table = transistor_table()
        assert len(table) == 26
        for name, model, drain, gate, source, bulk, width, _role in table:
            device = vco_circuit.device(name)
            assert device.nodes == [drain, gate, source, bulk]
            assert device.w == pytest.approx(width)

    def test_schmitt_block_contains_m11(self):
        assert "M11" in BLOCKS["schmitt_trigger"]

    def test_diode_connected_count(self):
        assert len(DIODE_CONNECTED) == 6

    def test_environment_devices_marked(self, vco_circuit):
        assert set(vco_circuit.metadata["environment_devices"]) == {"RVDD", "RCTRL"}

    def test_width_override(self):
        circuit = build_vco(VCOParameters(width_overrides={"M5": 20e-6}))
        assert circuit.device("M5").w == pytest.approx(20e-6)

    def test_nominal_settings_match_paper(self):
        settings = nominal_transient_settings()
        assert settings["tstop"] == pytest.approx(4e-6)
        assert settings["tstop"] / settings["tstep"] == pytest.approx(400)
        assert settings["use_ic"] is True


class TestVCOBehaviour:
    def test_oscillates(self, vco_short_transient):
        wave = vco_short_transient[OUTPUT_NODE]
        assert wave.oscillates(min_swing=3.0)

    def test_output_swings_rail_to_rail(self, vco_short_transient):
        wave = vco_short_transient[OUTPUT_NODE]
        assert wave.maximum() > 4.5
        assert wave.minimum() < 0.5

    def test_capacitor_node_stays_inside_supply(self, vco_short_transient):
        wave = vco_short_transient["5"]
        assert -0.5 < wave.minimum()
        assert wave.maximum() < 5.5

    def test_frequency_in_expected_range(self, vco_short_transient):
        frequency = vco_short_transient[OUTPUT_NODE].frequency()
        assert 0.5e6 < frequency < 4e6

    @pytest.mark.slow
    def test_frequency_increases_with_control_voltage(self):
        frequencies = []
        for vctrl in (2.8, 3.6):
            circuit = build_vco(VCOParameters(control_voltage=vctrl))
            result = TransientAnalysis(circuit, tstop=4e-6, tstep=1e-8,
                                       use_ic=True).run()
            frequencies.append(result[OUTPUT_NODE].frequency())
        assert frequencies[1] > frequencies[0] > 0.0


class TestSchmittTrigger:
    def test_hysteresis(self):
        circuit = build_schmitt_trigger()
        up = DCSweepAnalysis(circuit, "VIN", 0.0, 5.0, 0.25).run()["out"]
        down = DCSweepAnalysis(circuit, "VIN", 5.0, 0.0, -0.25).run()["out"]
        # Rising input: the output switches low at the upper threshold.
        upper = min(x for x, y in zip(up.x, up.y) if y < 2.5)
        # Falling input (stored in ascending-x order): the output is high
        # only below the lower threshold.
        lower = max(x for x, y in zip(down.x, down.y) if y > 2.5)
        assert upper > lower + 0.5, "Schmitt trigger must show hysteresis"

    def test_inverting(self):
        circuit = build_schmitt_trigger(input_voltage=0.0)
        assert OperatingPointAnalysis(circuit).run()["out"] > 4.5
        circuit = build_schmitt_trigger(input_voltage=5.0)
        assert OperatingPointAnalysis(circuit).run()["out"] < 0.5


class TestLibraryCircuits:
    def test_rc_lowpass_nodes(self):
        circuit = build_rc_lowpass()
        assert circuit.has_node("in") and circuit.has_node("out")

    def test_differential_pair_balanced(self):
        circuit = build_differential_pair()
        op = OperatingPointAnalysis(circuit).run()
        assert op["outp"] == pytest.approx(op["outn"], abs=0.05)

    def test_differential_pair_steering(self):
        circuit = build_differential_pair()
        from repro.spice.devices import DCShape

        circuit.device("VINP").shape = DCShape(2.8)
        op = OperatingPointAnalysis(circuit).run()
        assert op["outn"] < op["outp"]

    @pytest.mark.parametrize("build", [build_cmos_inverter,
                                       build_current_mirror,
                                       build_schmitt_trigger,
                                       build_differential_pair])
    def test_cells_supply_on_the_one_supply_net(self, build):
        circuit = build()
        supply = SUPPLY_NETS[1]
        assert circuit.device("VDD").nodes == [supply, "0"]
        assert not circuit.has_node("vdd")
        for device in circuit.devices_of_type(Mosfet):
            if device.model_name == "pch":
                assert device.nodes[3] == supply
