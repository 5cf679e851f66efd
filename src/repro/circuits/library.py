"""Auxiliary reference circuits used by the examples and the test suite."""

from __future__ import annotations

from ..spice import Capacitor, Circuit, CurrentSource, Mosfet, Resistor, VoltageSource
from ..spice.devices import DCShape, PulseShape
from ..spice.netlist import SUPPLY_NETS
from .models import VDD_NOMINAL, add_default_models

#: Supply net of the cells below: the layout generator's top rail and the
#: extracted PMOS bulk, so a generated layout passes LVS bulk and all.
VDD_NET = SUPPLY_NETS[1]


def build_rc_lowpass(resistance: float = 1e3, capacitance: float = 1e-9,
                     step_voltage: float = 1.0) -> Circuit:
    """A first-order RC low-pass driven by a voltage step (node ``out``)."""
    circuit = Circuit("RC low-pass")
    circuit.add(VoltageSource("VIN", "in", "0",
                              PulseShape(0.0, step_voltage, 0.0, 1e-9, 1e-9,
                                         1.0, 2.0)))
    circuit.add(Resistor("R1", "in", "out", resistance))
    circuit.add(Capacitor("C1", "out", "0", capacitance))
    return circuit


def build_rc_ladder(sections: int, resistance: float = 1e3,
                    capacitance: float = 1e-9) -> Circuit:
    """A step-driven RC ladder with ``sections`` series R / shunt C stages.

    Nodes are ``in``, ``n1`` ... ``n<sections>``.  Fully linear, so it
    exercises the transient linear bypass; the section count scales the MNA
    matrix size (``sections + 2`` unknowns), which the solver-backend tests
    and the kernel-scaling benchmark both lean on.
    """
    circuit = Circuit(f"RC ladder ({sections} sections)")
    circuit.add(VoltageSource("VIN", "in", "0",
                              PulseShape(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 2.0)))
    previous = "in"
    for k in range(1, sections + 1):
        node = f"n{k}"
        circuit.add(Resistor(f"R{k}", previous, node, resistance))
        circuit.add(Capacitor(f"C{k}", node, "0", capacitance))
        previous = node
    return circuit


def build_cmos_inverter(vdd: float = VDD_NOMINAL, wn: float = 10e-6,
                        wp: float = 20e-6, length: float = 2e-6,
                        input_voltage: float = 0.0) -> Circuit:
    """A CMOS inverter (input node ``in``, output node ``out``)."""
    circuit = Circuit("CMOS inverter")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", VDD_NET, "0", DCShape(vdd)))
    circuit.add(VoltageSource("VIN", "in", "0", DCShape(input_voltage)))
    circuit.add(Mosfet("MN", "out", "in", "0", "0", "nch", w=wn, l=length))
    circuit.add(Mosfet("MP", "out", "in", VDD_NET, VDD_NET, "pch", w=wp, l=length))
    return circuit


def build_current_mirror(reference_current: float = 20e-6,
                         mirror_ratio: float = 1.0,
                         vdd: float = VDD_NOMINAL) -> Circuit:
    """A simple NMOS current mirror loaded by a resistor (output ``out``)."""
    circuit = Circuit("NMOS current mirror")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", VDD_NET, "0", DCShape(vdd)))
    circuit.add(CurrentSource("IREF", VDD_NET, "bias", DCShape(reference_current)))
    circuit.add(Mosfet("M1", "bias", "bias", "0", "0", "nch", w=10e-6, l=2e-6))
    circuit.add(Mosfet("M2", "out", "bias", "0", "0", "nch",
                       w=10e-6 * mirror_ratio, l=2e-6))
    circuit.add(Resistor("RL", VDD_NET, "out", 50e3))
    return circuit


def build_schmitt_trigger(vdd: float = VDD_NOMINAL,
                          input_voltage: float = 0.0) -> Circuit:
    """The 6-transistor CMOS Schmitt trigger used inside the VCO.

    Input node ``in``, output node ``out``.
    """
    circuit = Circuit("CMOS Schmitt trigger")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", VDD_NET, "0", DCShape(vdd)))
    circuit.add(VoltageSource("VIN", "in", "0", DCShape(input_voltage)))
    # PMOS stack with feedback.
    circuit.add(Mosfet("MP1", "pm", "in", VDD_NET, VDD_NET, "pch", w=12e-6, l=2e-6))
    circuit.add(Mosfet("MP2", "out", "in", "pm", VDD_NET, "pch", w=12e-6, l=2e-6))
    circuit.add(Mosfet("MPF", "0", "out", "pm", VDD_NET, "pch", w=6e-6, l=2e-6))
    # NMOS stack with feedback.
    circuit.add(Mosfet("MN1", "nm", "in", "0", "0", "nch", w=6e-6, l=2e-6))
    circuit.add(Mosfet("MN2", "out", "in", "nm", "0", "nch", w=6e-6, l=2e-6))
    circuit.add(Mosfet("MNF", VDD_NET, "out", "nm", "0", "nch", w=3e-6, l=2e-6))
    return circuit


def build_differential_pair(vdd: float = VDD_NOMINAL,
                            tail_current: float = 40e-6) -> Circuit:
    """An NMOS differential pair with resistive loads.

    Inputs ``inp``/``inn``, outputs ``outp``/``outn``.
    """
    circuit = Circuit("NMOS differential pair")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", VDD_NET, "0", DCShape(vdd)))
    circuit.add(VoltageSource("VINP", "inp", "0", DCShape(2.5)))
    circuit.add(VoltageSource("VINN", "inn", "0", DCShape(2.5)))
    circuit.add(Resistor("RL1", VDD_NET, "outn", 50e3))
    circuit.add(Resistor("RL2", VDD_NET, "outp", 50e3))
    circuit.add(Mosfet("M1", "outn", "inp", "tail", "0", "nch", w=20e-6, l=2e-6))
    circuit.add(Mosfet("M2", "outp", "inn", "tail", "0", "nch", w=20e-6, l=2e-6))
    circuit.add(CurrentSource("ITAIL", "tail", "0", DCShape(tail_current)))
    return circuit
