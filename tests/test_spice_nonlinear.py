"""Tests for the diode, MOSFET and switch models and the DC analyses."""

import math

import pytest

from repro.errors import AnalysisError, ModelError
from repro.spice import (
    Circuit,
    DCSweepAnalysis,
    Diode,
    Model,
    Mosfet,
    OperatingPointAnalysis,
    Resistor,
    SimulationOptions,
    VoltageControlledSwitch,
    VoltageSource,
)
from repro.spice.devices import DCShape
from repro.circuits import add_default_models, build_cmos_inverter, build_current_mirror


def _diode_circuit(vin=5.0, r=1e3):
    circuit = Circuit("diode")
    circuit.add_model(Model("dx", "d", **{"is": 1e-14}))
    circuit.add(VoltageSource("V1", "a", "0", vin))
    circuit.add(Resistor("R1", "a", "k", r))
    circuit.add(Diode("D1", "k", "0", "dx"))
    return circuit


class TestDiode:
    def test_forward_drop(self):
        op = OperatingPointAnalysis(_diode_circuit()).run()
        assert 0.55 < op["k"] < 0.8

    def test_current_matches_exponential(self):
        op = OperatingPointAnalysis(_diode_circuit()).run()
        vd = op["k"]
        current = (5.0 - vd) / 1e3
        expected = 1e-14 * (math.exp(vd / 0.02585) - 1.0)
        assert current == pytest.approx(expected, rel=0.02)

    def test_reverse_bias_blocks(self):
        circuit = Circuit("rev")
        circuit.add_model(Model("dx", "d", **{"is": 1e-14}))
        circuit.add(VoltageSource("V1", "a", "0", -5.0))
        circuit.add(Resistor("R1", "a", "k", 1e3))
        circuit.add(Diode("D1", "k", "0", "dx"))
        op = OperatingPointAnalysis(circuit).run()
        # Nearly the full negative voltage appears across the diode.
        assert op["k"] == pytest.approx(-5.0, abs=0.01)

    def test_area_scales_current(self):
        op1 = OperatingPointAnalysis(_diode_circuit()).run()
        big = _diode_circuit()
        big.remove("D1")
        big.add(Diode("D1", "k", "0", "dx", area=100.0))
        op2 = OperatingPointAnalysis(big).run()
        assert op2["k"] < op1["k"]


class TestMosfetDC:
    def test_cutoff(self):
        circuit = build_cmos_inverter(input_voltage=0.0)
        op = OperatingPointAnalysis(circuit).run()
        assert op["out"] == pytest.approx(5.0, abs=0.01)

    def test_full_on(self):
        circuit = build_cmos_inverter(input_voltage=5.0)
        op = OperatingPointAnalysis(circuit).run()
        assert op["out"] == pytest.approx(0.0, abs=0.01)

    def test_transition_region(self):
        circuit = build_cmos_inverter(input_voltage=2.4)
        op = OperatingPointAnalysis(circuit).run()
        assert 0.2 < op["out"] < 4.8

    def test_saturation_current_level1(self):
        """Id = 0.5*kp*(W/L)*(Vgs-Vt)^2*(1+lambda*Vds) in saturation."""
        circuit = Circuit("idtest")
        add_default_models(circuit)
        circuit.add(VoltageSource("VD", "d", "0", 5.0))
        circuit.add(VoltageSource("VG", "g", "0", 2.0))
        circuit.add(Mosfet("M1", "d", "g", "0", "0", "nch", w=10e-6, l=2e-6))
        op = OperatingPointAnalysis(circuit).run()
        expected = 0.5 * 50e-6 * 5 * (2.0 - 0.8) ** 2 * (1 + 0.02 * 5.0)
        assert abs(op.branch_current("VD")) == pytest.approx(expected, rel=0.02)

    def test_triode_current_level1(self):
        circuit = Circuit("triode")
        add_default_models(circuit)
        circuit.add(VoltageSource("VD", "d", "0", 0.1))
        circuit.add(VoltageSource("VG", "g", "0", 5.0))
        circuit.add(Mosfet("M1", "d", "g", "0", "0", "nch", w=10e-6, l=2e-6))
        op = OperatingPointAnalysis(circuit).run()
        vgst, vds = 5.0 - 0.8, 0.1
        expected = 50e-6 * 5 * (vgst - vds / 2) * vds * (1 + 0.02 * vds)
        assert abs(op.branch_current("VD")) == pytest.approx(expected, rel=0.02)

    def test_symmetric_operation_reverse_mode(self):
        """Swapping drain and source must not change the magnitude of Id."""
        circuit = Circuit("sym")
        add_default_models(circuit)
        circuit.add(VoltageSource("VD", "d", "0", 3.0))
        circuit.add(VoltageSource("VG", "g", "0", 2.5))
        circuit.add(Mosfet("M1", "0", "g", "d", "0", "nch", w=10e-6, l=2e-6))
        op = OperatingPointAnalysis(circuit).run()
        circuit2 = Circuit("sym2")
        add_default_models(circuit2)
        circuit2.add(VoltageSource("VD", "d", "0", 3.0))
        circuit2.add(VoltageSource("VG", "g", "0", 2.5))
        circuit2.add(Mosfet("M1", "d", "g", "0", "0", "nch", w=10e-6, l=2e-6))
        op2 = OperatingPointAnalysis(circuit2).run()
        # In reverse mode the source terminal acts as drain: the body effect
        # makes the current slightly smaller, but it must stay in the same
        # range and flow in the opposite direction through the supply.
        assert abs(op.branch_current("VD")) == pytest.approx(
            abs(op2.branch_current("VD")), rel=0.25)

    def test_body_effect_raises_threshold(self):
        circuit = Circuit("body")
        add_default_models(circuit)
        circuit.add(VoltageSource("VD", "d", "0", 5.0))
        circuit.add(VoltageSource("VG", "g", "0", 2.0))
        circuit.add(VoltageSource("VS", "s", "0", 1.0))
        circuit.add(VoltageSource("VB", "b", "0", 0.0))
        circuit.add(Mosfet("M1", "d", "g", "s", "b", "nch", w=10e-6, l=2e-6))
        op = OperatingPointAnalysis(circuit).run()
        id_body = abs(op.branch_current("VD"))
        # Same Vgs but source tied to bulk: larger current (no body effect).
        circuit.device("VB").shape = DCShape(1.0)
        op2 = OperatingPointAnalysis(circuit).run()
        assert abs(op2.branch_current("VD")) > id_body

    def test_wrong_model_kind_raises(self):
        circuit = Circuit("bad")
        circuit.add_model(Model("dx", "d", **{"is": 1e-14}))
        circuit.add(VoltageSource("VD", "d", "0", 5.0))
        circuit.add(Mosfet("M1", "d", "d", "0", "0", "dx"))
        with pytest.raises(ModelError):
            OperatingPointAnalysis(circuit).run()

    def test_current_mirror_copies_current(self):
        circuit = build_current_mirror(reference_current=20e-6)
        op = OperatingPointAnalysis(circuit).run()
        # Output current ~ 20 uA through the 50k load: drop ~ 1 V.
        drop = 5.0 - op["out"]
        assert drop == pytest.approx(1.0, rel=0.15)

    def test_operating_point_record(self):
        circuit = build_cmos_inverter(input_voltage=2.5)
        op = OperatingPointAnalysis(circuit).run()
        record = op.device_operating_point("MN")
        assert record["gm"] > 0.0
        assert record["ids"] > 0.0


class TestDCSweep:
    def test_inverter_transfer_curve(self):
        circuit = build_cmos_inverter()
        sweep = DCSweepAnalysis(circuit, "VIN", 0.0, 5.0, 0.25).run()
        wave = sweep["out"]
        assert wave.y[0] == pytest.approx(5.0, abs=0.05)
        assert wave.y[-1] == pytest.approx(0.0, abs=0.05)
        # Monotonically non-increasing transfer characteristic.
        assert all(b <= a + 1e-6 for a, b in zip(wave.y, wave.y[1:]))

    def test_sweep_values(self):
        circuit = build_cmos_inverter()
        sweep = DCSweepAnalysis(circuit, "VIN", 0.0, 1.0, 0.5).run()
        assert list(sweep.values) == pytest.approx([0.0, 0.5, 1.0])

    def test_bad_step_rejected(self):
        circuit = build_cmos_inverter()
        with pytest.raises(Exception):
            DCSweepAnalysis(circuit, "VIN", 0.0, 1.0, 0.0)


class TestSwitch:
    def _switch_circuit(self, control_voltage):
        circuit = Circuit("sw")
        circuit.add_model(Model("swm", "sw", ron=1.0, roff=1e9, vt=2.5, vh=0.2))
        circuit.add(VoltageSource("VC", "c", "0", control_voltage))
        circuit.add(VoltageSource("V1", "in", "0", 1.0))
        circuit.add(Resistor("R1", "in", "out", "1k"))
        circuit.add(VoltageControlledSwitch("S1", "out", "0", "c", "0", "swm"))
        return circuit

    def test_switch_on(self):
        op = OperatingPointAnalysis(self._switch_circuit(5.0)).run()
        assert op["out"] == pytest.approx(0.0, abs=0.01)

    def test_switch_off(self):
        op = OperatingPointAnalysis(self._switch_circuit(0.0)).run()
        assert op["out"] == pytest.approx(1.0, abs=0.01)


class TestOperatingPointRobustness:
    def test_floating_node_held_by_gmin(self):
        circuit = Circuit("float")
        circuit.add(VoltageSource("V1", "a", "0", 1.0))
        circuit.add(Resistor("R1", "a", "b", 1e3))
        circuit.add(Resistor("R2", "c", "0", 1e3))  # c floats
        op = OperatingPointAnalysis(circuit).run()
        assert op["c"] == pytest.approx(0.0, abs=1e-6)

    def test_unknown_node_raises(self):
        circuit = Circuit("x")
        circuit.add(VoltageSource("V1", "a", "0", 1.0))
        circuit.add(Resistor("R1", "a", "0", 1e3))
        op = OperatingPointAnalysis(circuit).run()
        with pytest.raises(Exception):
            op.voltage("does_not_exist")


class TestSimulationOptionsValidation:
    """Malformed options fail at construction with an AnalysisError that
    names the field and the value, instead of deep inside a solve (a raw
    TypeError from range(), a dt_min ladder of 0-iteration attempts, 60
    wasted NaN iterations, or a silent fall-back to backward Euler)."""

    @pytest.mark.parametrize("field, value", [
        ("itl4", 2.5), ("itl4", 0), ("itl4", -3), ("itl1", 0),
        ("itl1", True), ("itl4", "60"),
        ("reltol", float("nan")), ("reltol", 0.0), ("vntol", -1e-6),
        ("abstol", float("inf")),
        ("gmin", -1.0), ("gmin", float("nan")),
        ("max_voltage_step", -0.5), ("max_voltage_step", float("inf")),
        ("integration", "foo"), ("integration", "tarp"), ("integration", 2),
    ])
    def test_malformed_value_is_named(self, field, value):
        with pytest.raises(AnalysisError, match=rf"{field}.*{value!r}"):
            SimulationOptions(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {}, {"integration": "TRAP"}, {"integration": "trapezoidal"},
        {"integration": "Gear"}, {"integration": "bdf"},
        {"integration": "be"}, {"gmin": 0.0}, {"max_voltage_step": 0.0},
        {"itl4": 1}])
    def test_valid_values_are_kept_verbatim(self, overrides):
        options = SimulationOptions(**overrides)
        for field, value in overrides.items():
            assert getattr(options, field) == value
