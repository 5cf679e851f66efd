"""Tests for the circuit data model."""

import numpy as np
import pytest

from repro.anafault import FaultInjector
from repro.circuits import build_vco
from repro.errors import ModelError, NetlistError
from repro.lift import OpenFault
from repro.spice import (
    Capacitor,
    Circuit,
    Model,
    Mosfet,
    Resistor,
    TransientAnalysis,
    VoltageSource,
)
from repro.spice.netlist import GROUND, normalize_node
from repro.spice.writer import write_netlist


class TestNormalizeNode:
    def test_ground_aliases(self):
        for alias in ("0", "gnd", "GND", "ground", "Gnd!  ".strip()):
            assert normalize_node(alias) == GROUND

    def test_case_insensitive(self):
        assert normalize_node("OUT") == "out"

    def test_integer_accepted(self):
        assert normalize_node(11) == "11"

    def test_empty_rejected(self):
        with pytest.raises(NetlistError):
            normalize_node("  ")


class TestCircuitDevices:
    def test_add_and_lookup(self):
        circuit = Circuit("t")
        circuit.add(Resistor("R1", "a", "b", 100))
        assert "r1" in circuit
        assert circuit.device("R1").resistance == 100

    def test_duplicate_name_rejected(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        with pytest.raises(NetlistError):
            circuit.add(Resistor("r1", "c", "d", 200))

    def test_remove(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.remove("R1")
        assert len(circuit) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(NetlistError):
            Circuit().remove("R1")

    def test_replace(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.replace(Resistor("R1", "a", "b", 200))
        assert circuit.device("R1").resistance == 200

    def test_devices_of_type(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Capacitor("C1", "b", "0", 1e-9))
        assert len(circuit.devices_of_type(Resistor)) == 1
        assert len(circuit.devices_of_type(Capacitor)) == 1

    def test_iteration_preserves_order(self):
        circuit = Circuit()
        for index in range(5):
            circuit.add(Resistor(f"R{index}", "a", "b", 100))
        names = [d.name for d in circuit]
        assert names == [f"R{i}" for i in range(5)]

    def test_summary(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Resistor("R2", "b", "0", 100))
        assert circuit.summary() == {"Resistor": 2}


class TestCircuitNodes:
    def test_nodes_exclude_ground(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "0", 100))
        assert circuit.nodes() == ["a"]
        assert circuit.nodes(include_ground=True) == ["0", "a"]

    def test_node_degree(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Resistor("R2", "b", "0", 100))
        degree = circuit.node_degree()
        assert degree["b"] == 2
        assert degree["a"] == 1

    def test_devices_on_node(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Resistor("R2", "b", "0", 100))
        assert {d.name for d in circuit.devices_on_node("b")} == {"R1", "R2"}

    def test_has_node(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        assert circuit.has_node("a")
        assert circuit.has_node("0")
        assert not circuit.has_node("z")

    def test_fresh_node_unique(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "n_fault1", "0", 100))
        fresh = circuit.fresh_node()
        assert fresh != "n_fault1"
        assert not circuit.has_node(fresh)

    def test_fresh_device_name(self):
        circuit = Circuit()
        circuit.add(Resistor("Rx1", "a", "0", 100))
        assert circuit.fresh_device_name("Rx").lower() not in circuit._devices


class TestRenameNode:
    def test_rename_all(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Resistor("R2", "b", "0", 100))
        count = circuit.rename_node("b", "c")
        assert count == 2
        assert not circuit.has_node("b")
        assert circuit.has_node("c")

    def test_rename_restricted_to_devices(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 100))
        circuit.add(Resistor("R2", "b", "0", 100))
        count = circuit.rename_node("b", "c", only_devices=["R2"])
        assert count == 1
        assert "b" in circuit.device("R1").nodes
        assert "c" in circuit.device("R2").nodes


class TestCloneAndModels:
    def test_clone_is_independent(self):
        circuit = Circuit("orig")
        circuit.add(Resistor("R1", "a", "b", 100))
        clone = circuit.clone()
        clone.device("R1").resistance = 500
        clone.add(Resistor("R2", "b", "0", 1))
        assert circuit.device("R1").resistance == 100
        assert len(circuit) == 1

    def test_changing_a_clone_leaves_the_original_untouched(self):
        circuit = build_vco()
        netlist = write_netlist(circuit)
        metadata = repr(circuit.metadata)
        clone = circuit.clone()
        assert write_netlist(clone) == netlist
        mosfet = clone.device("M1")
        mosfet.nodes[0] = "elsewhere"
        mosfet.w *= 2.0
        mosfet.l *= 3.0
        clone.device("C1").capacitance *= 2.0
        clone.models["nch"].params["vto"] = 9.0
        clone.add_model(Model("extra", "nmos"))
        clone.metadata["blocks"]["added"] = ["M1"]
        clone.metadata["new"] = 1
        clone.remove("M2")
        assert write_netlist(circuit) == netlist
        assert repr(circuit.metadata) == metadata
        assert clone.device("M1").nodes[0] == "elsewhere"

    def test_a_clone_owns_its_analysis_state(self):
        circuit = build_vco()
        TransientAnalysis(circuit, tstop=5e-8, tstep=1e-8, use_ic=True).run()
        clone = circuit.clone()
        for original, copy in zip(circuit.devices, clone.devices):
            assert copy is not original and copy.nodes is not original.nodes
        mosfet, twin = circuit.device("M1"), clone.device("M1")
        assert mosfet._newton is not None and twin._newton is None
        assert twin.params == mosfet.params and twin.params is not mosfet.params

    def test_clone_of_a_simulated_circuit_simulates_like_a_fresh_one(self):
        simulated = build_vco()
        TransientAnalysis(simulated, tstop=3e-7, tstep=1e-8,
                          use_ic=True).run()
        fault = OpenFault(1, device="M5", terminal="drain")
        runs = []
        for template in (simulated, build_vco()):
            for circuit in (template.clone(),
                            FaultInjector(template).inject(fault)):
                runs.append(TransientAnalysis(circuit, tstop=3e-7,
                                              tstep=1e-8, use_ic=True).run())
        for cloned, fresh in ((runs[0], runs[2]), (runs[1], runs[3])):
            assert cloned.stats == fresh.stats
            assert cloned.nodes == fresh.nodes
            for node in fresh.nodes:
                np.testing.assert_array_equal(cloned.waveform(node).y,
                                              fresh.waveform(node).y)

    def test_model_roundtrip(self):
        circuit = Circuit()
        circuit.add_model(Model("nch", "nmos", vto=0.7))
        assert circuit.model("NCH").get("vto") == 0.7

    def test_missing_model_raises(self):
        with pytest.raises(ModelError):
            Circuit().model("nope")

    def test_model_copy_is_independent(self):
        model = Model("nch", "nmos", vto=0.7)
        copy = model.copy()
        copy.params["vto"] = 1.0
        assert model.get("vto") == 0.7


class TestVCOCircuitStructure:
    def test_transistor_count(self, vco_circuit):
        assert len(vco_circuit.devices_of_type(Mosfet)) == 26

    def test_single_capacitor(self, vco_circuit):
        assert len(vco_circuit.devices_of_type(Capacitor)) == 1

    def test_supply_and_control_sources(self, vco_circuit):
        sources = vco_circuit.devices_of_type(VoltageSource)
        assert {s.name for s in sources} == {"VDD", "VCTRL"}

    def test_six_diode_connected(self, vco_circuit):
        diode_connected = vco_circuit.metadata["diode_connected"]
        assert len(diode_connected) == 6
        for name in diode_connected:
            device = vco_circuit.device(name)
            drain, gate, _source, _bulk = device.nodes
            assert drain == gate

    def test_output_node_exists(self, vco_circuit):
        assert vco_circuit.has_node("11")
