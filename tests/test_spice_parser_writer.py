"""Tests for the SPICE netlist parser and writer."""

import pytest

from repro.errors import NetlistError
from repro.spice import (
    Capacitor,
    Circuit,
    Mosfet,
    OperatingPointAnalysis,
    Resistor,
    VoltageSource,
    parse_netlist,
    write_netlist,
)
from repro.spice.devices import PulseShape, SinShape
from repro.circuits import add_default_models, build_vco


BASIC = """simple divider
V1 in 0 DC 10
R1 in out 1k
R2 out 0 1k
.op
.end
"""


class TestParserBasics:
    def test_title_line(self):
        parsed = parse_netlist(BASIC)
        assert parsed.circuit.title == "simple divider"

    def test_element_count(self):
        parsed = parse_netlist(BASIC)
        assert len(parsed.circuit) == 3

    def test_analysis_card(self):
        parsed = parse_netlist(BASIC)
        assert parsed.analyses[0].kind == "op"

    def test_values_parsed(self):
        parsed = parse_netlist(BASIC)
        assert parsed.circuit.device("R1").resistance == pytest.approx(1000.0)

    def test_simulation_of_parsed_circuit(self):
        parsed = parse_netlist(BASIC)
        op = OperatingPointAnalysis(parsed.circuit).run()
        assert op["out"] == pytest.approx(5.0)

    def test_comments_and_continuation(self):
        text = """test
* a comment line
R1 a b
+ 2k   ; inline comment
.end
"""
        parsed = parse_netlist(text)
        assert parsed.circuit.device("R1").resistance == pytest.approx(2000.0)

    def test_case_insensitive_nodes(self):
        parsed = parse_netlist("t\nR1 OUT GND 1k\n.end\n")
        assert parsed.circuit.device("R1").nodes == ["out", "0"]

    def test_unknown_element_raises(self):
        with pytest.raises(NetlistError):
            parse_netlist("t\nZ1 a b 1k\n.end\n")

    def test_unknown_directive_raises(self):
        with pytest.raises(NetlistError):
            parse_netlist("t\n.fourier v(1)\n.end\n")

    def test_missing_fields_raise(self):
        with pytest.raises(NetlistError):
            parse_netlist("t\nR1 a\n.end\n")


class TestParserSources:
    def test_dc_keyword(self):
        parsed = parse_netlist("t\nV1 a 0 DC 3.3\n.end\n")
        assert parsed.circuit.device("V1").shape.value(0) == pytest.approx(3.3)

    def test_bare_value(self):
        parsed = parse_netlist("t\nI1 a 0 1m\n.end\n")
        assert parsed.circuit.device("I1").shape.value(0) == pytest.approx(1e-3)

    def test_pulse_source(self):
        parsed = parse_netlist("t\nV1 a 0 PULSE(0 5 0 1n 1n 1u 2u)\n.end\n")
        shape = parsed.circuit.device("V1").shape
        assert isinstance(shape, PulseShape)
        assert shape.v2 == 5.0

    def test_pulse_with_spaces(self):
        parsed = parse_netlist("t\nV1 a 0 PULSE ( 0 5 0 1n 1n 1u 2u )\n.end\n")
        assert isinstance(parsed.circuit.device("V1").shape, PulseShape)

    def test_sin_source(self):
        parsed = parse_netlist("t\nV1 a 0 SIN(2.5 2.5 1meg)\n.end\n")
        shape = parsed.circuit.device("V1").shape
        assert isinstance(shape, SinShape)
        assert shape.frequency == pytest.approx(1e6)

    def test_pwl_source(self):
        parsed = parse_netlist("t\nV1 a 0 PWL(0 0 1u 5 2u 5)\n.end\n")
        assert parsed.circuit.device("V1").shape.value(0.5e-6) == pytest.approx(2.5)

    def test_ac_specification(self):
        parsed = parse_netlist("t\nV1 a 0 DC 0 AC 1 90\n.end\n")
        source = parsed.circuit.device("V1")
        assert source.ac_magnitude == 1.0
        assert source.ac_phase == 90.0


class TestParserDevices:
    def test_mosfet_with_geometry(self):
        text = """t
.model nch nmos vto=0.8 kp=50u
M1 d g 0 0 nch w=10u l=2u ad=50p
.end
"""
        parsed = parse_netlist(text)
        mosfet = parsed.circuit.device("M1")
        assert mosfet.w == pytest.approx(10e-6)
        assert mosfet.l == pytest.approx(2e-6)
        assert mosfet.ad == pytest.approx(50e-12)
        assert parsed.circuit.model("nch").get("kp") == pytest.approx(50e-6)

    def test_model_with_parentheses(self):
        parsed = parse_netlist("t\n.model dx d(is=1e-15 n=1.2)\nD1 a 0 dx\n.end\n")
        assert parsed.circuit.model("dx").get("is") == pytest.approx(1e-15)

    def test_capacitor_ic(self):
        parsed = parse_netlist("t\nC1 a 0 10p ic=2.5\n.end\n")
        assert parsed.circuit.device("C1").initial_voltage == pytest.approx(2.5)

    def test_ic_directive(self):
        parsed = parse_netlist("t\nR1 a 0 1k\n.ic v(a)=1.5\n.end\n")
        assert parsed.initial_conditions["a"] == pytest.approx(1.5)

    def test_options_directive(self):
        parsed = parse_netlist("t\nR1 a 0 1k\n.options reltol=1e-4 gmin=1e-14\n.end\n")
        assert parsed.options["reltol"] == pytest.approx(1e-4)

    def test_param_substitution(self):
        text = """t
.param rval=2k
R1 a 0 rval
.end
"""
        parsed = parse_netlist(text)
        assert parsed.circuit.device("R1").resistance == pytest.approx(2000.0)


class TestSubcircuits:
    TEXT = """subckt test
.subckt divider in out
R1 in out 1k
R2 out 0 1k
.ends
V1 vin 0 DC 10
X1 vin mid divider
X2 mid low divider
.end
"""

    def test_flattening_creates_prefixed_devices(self):
        parsed = parse_netlist(self.TEXT)
        names = {d.name.lower() for d in parsed.circuit.devices}
        assert "r1.x1" in names and "r2.x2" in names

    def test_flattened_circuit_simulates(self):
        parsed = parse_netlist(self.TEXT)
        op = OperatingPointAnalysis(parsed.circuit).run()
        # mid sees 1k to vin and (1k to ground) || (1k + 1k to ground).
        assert op["mid"] == pytest.approx(4.0, rel=0.01)
        assert op["low"] == pytest.approx(2.0, rel=0.01)

    def test_unknown_subckt_raises(self):
        with pytest.raises(NetlistError):
            parse_netlist("t\nX1 a b nosuch\n.end\n")

    def test_port_count_mismatch_raises(self):
        text = self.TEXT.replace("X1 vin mid divider", "X1 vin divider")
        with pytest.raises(NetlistError):
            parse_netlist(text)


class TestSourceShapes:
    @pytest.mark.parametrize("card, expected", [
        ("PULSE(0 5 1n 1n 1n 1n 1n 1n)", "PULSE takes 2 to 7 values, got 8"),
        ("PULSE()", "PULSE takes 2 to 7 values, got 0"),
        ("SIN(0 1)", "SIN takes 3 to 5 values, got 2"),
        ("SIN(0 1 1meg 0 0 0 0)", "SIN takes 3 to 5 values, got 7"),
        ("EXP(1)", "EXP takes 2 to 6 values, got 1"),
        ("EXP 0 1 1n 1n 1n 1n 1n", "EXP takes 2 to 6 values, got 7"),
    ])
    def test_wrong_value_count_names_device_and_shape(self, card, expected):
        with pytest.raises(NetlistError, match="source 'V1'") as info:
            parse_netlist(f"t\nV1 a 0 {card}\nR1 a 0 1k\n.end\n")
        assert expected in str(info.value)

    @pytest.mark.parametrize("card", [
        "PULSE(0 5)", "PULSE(0 5 1n 1n 1n 1n 1n)", "SIN(0 1 1meg)",
        "SIN(0 1 1meg 0 0)", "EXP(0 1)", "EXP(0 1 1n 1n 1n 1n)",
    ])
    def test_accepted_value_counts_parse(self, card):
        parse_netlist(f"t\nV1 a 0 {card}\nR1 a 0 1k\n.end\n")


class TestWriter:
    def test_roundtrip_simple(self):
        circuit = Circuit("roundtrip")
        circuit.add(VoltageSource("V1", "in", "0", 5.0))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        text = write_netlist(circuit)
        parsed = parse_netlist(text)
        assert len(parsed.circuit) == 3
        op_a = OperatingPointAnalysis(circuit).run()
        op_b = OperatingPointAnalysis(parsed.circuit).run()
        assert op_a["out"] == pytest.approx(op_b["out"])

    def test_roundtrip_vco(self):
        vco = build_vco()
        text = write_netlist(vco)
        parsed = parse_netlist(text)
        assert len(parsed.circuit.devices_of_type(Mosfet)) == 26
        assert len(parsed.circuit) == len(vco)
        # Node sets must be identical after the round trip.
        assert set(parsed.circuit.nodes()) == set(vco.nodes())

    def test_analysis_cards_appended(self):
        circuit = Circuit("t")
        circuit.add(Resistor("R1", "a", "0", 1e3))
        text = write_netlist(circuit, analyses=["tran 1n 1u", ".op"])
        assert ".tran 1n 1u" in text
        assert ".op" in text
        assert text.rstrip().endswith(".end")

    def test_mosfet_card_contains_geometry(self):
        circuit = Circuit("t")
        add_default_models(circuit)
        circuit.add(Mosfet("M1", "d", "g", "s", "b", "nch", w=4e-6, l=2e-6))
        text = write_netlist(circuit)
        assert "w=4e-06" in text and "l=2e-06" in text
