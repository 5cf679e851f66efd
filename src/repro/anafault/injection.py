"""Fault injection: rewrite a copy of the circuit to contain one fault.

The injector mirrors AnaFAULT's preprocessing phase: the original input
netlist is left untouched, a modified copy is produced for each fault in the
fault list.  Injection works directly on the circuit data model; the
netlist-text round trip (writer + parser) is exercised by the tests to show
the two representations stay equivalent.
"""

from __future__ import annotations

from ..errors import FaultInjectionError
from ..lift.faults import (
    BridgingFault,
    Fault,
    OpenFault,
    ParametricFault,
    SplitNodeFault,
    StuckOpenFault,
    terminal_index,
)
from ..spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    VoltageSource,
)
from ..spice.devices import DCShape
from .models import FaultModelOptions, RESISTOR_MODEL


class FaultInjector:
    """Inject faults from a LIFT fault list into copies of a circuit."""

    def __init__(self, circuit: Circuit,
                 model_options: FaultModelOptions | None = None):
        self.circuit = circuit
        self.model_options = model_options or FaultModelOptions()

    # ------------------------------------------------------------------
    def inject(self, fault: Fault) -> Circuit:
        """Return a new circuit containing ``fault``."""
        faulty = self.circuit.clone()
        if isinstance(fault, BridgingFault):
            self._inject_bridge(faulty, fault)
        elif isinstance(fault, (OpenFault, StuckOpenFault)):
            self._inject_terminal_open(faulty, fault.device, fault.terminal,
                                       fault.fault_id)
        elif isinstance(fault, SplitNodeFault):
            self._inject_split(faulty, fault)
        elif isinstance(fault, ParametricFault):
            self._inject_parametric(faulty, fault)
        else:
            raise FaultInjectionError(
                f"cannot inject fault of type {type(fault).__name__}")
        faulty.title = f"{self.circuit.title} + {fault.label()}"
        faulty.metadata["injected_fault"] = fault.label()
        return faulty

    # ------------------------------------------------------------------
    # Shorts
    # ------------------------------------------------------------------
    def _inject_bridge(self, circuit: Circuit, fault: BridgingFault) -> None:
        for net in (fault.net_a, fault.net_b):
            if not circuit.has_node(net):
                raise FaultInjectionError(
                    f"bridging fault {fault.label()}: net {net!r} does not "
                    "exist in the circuit")
        name = circuit.fresh_device_name(f"Rfault{fault.fault_id}_")
        if self.model_options.model == RESISTOR_MODEL:
            circuit.add(Resistor(name, fault.net_a, fault.net_b,
                                 self.model_options.short_resistance))
        else:
            circuit.add(VoltageSource(
                circuit.fresh_device_name(f"Vfault{fault.fault_id}_"),
                fault.net_a, fault.net_b, DCShape(0.0)))

    # ------------------------------------------------------------------
    # Opens
    # ------------------------------------------------------------------
    def _break_terminal(self, circuit: Circuit, device_name: str,
                        terminal: str, fault_id: int) -> tuple[str, str]:
        """Detach one terminal of a device onto a fresh node.

        Returns (original_node, new_node)."""
        device = circuit.device(device_name)
        index = terminal_index(terminal, len(device.nodes))
        if index >= len(device.nodes):
            raise FaultInjectionError(
                f"device {device_name!r} has no terminal {terminal!r}")
        original = device.nodes[index]
        new_node = circuit.fresh_node(f"n_open{fault_id}_")
        device.nodes[index] = new_node
        return original, new_node

    def _connect_open_model(self, circuit: Circuit, node_a: str, node_b: str,
                            fault_id: int) -> None:
        if self.model_options.model == RESISTOR_MODEL:
            circuit.add(Resistor(
                circuit.fresh_device_name(f"Ropen{fault_id}_"),
                node_a, node_b, self.model_options.open_resistance))
        else:
            circuit.add(CurrentSource(
                circuit.fresh_device_name(f"Iopen{fault_id}_"),
                node_a, node_b, DCShape(0.0)))

    def _inject_terminal_open(self, circuit: Circuit, device_name: str,
                              terminal: str, fault_id: int) -> None:
        if device_name not in circuit:
            raise FaultInjectionError(
                f"open fault references unknown device {device_name!r}")
        device = circuit.device(device_name)
        if isinstance(device, (Resistor, Capacitor, Inductor)) and \
                terminal.lower() not in ("pos", "neg"):
            terminal = "pos"
        original, new_node = self._break_terminal(circuit, device_name,
                                                  terminal, fault_id)
        self._connect_open_model(circuit, original, new_node, fault_id)

    def _inject_split(self, circuit: Circuit, fault: SplitNodeFault) -> None:
        if not circuit.has_node(fault.net):
            raise FaultInjectionError(
                f"split fault {fault.label()}: net {fault.net!r} not found")
        new_node = circuit.fresh_node(f"n_split{fault.fault_id}_")
        moved = 0
        for device_name, terminal in fault.group_b:
            if device_name not in circuit:
                continue
            device = circuit.device(device_name)
            index = terminal_index(terminal, len(device.nodes))
            if device.nodes[index] != fault.net:
                continue
            device.nodes[index] = new_node
            moved += 1
        if moved == 0:
            raise FaultInjectionError(
                f"split fault {fault.label()}: no terminal could be moved")
        self._connect_open_model(circuit, fault.net, new_node, fault.fault_id)

    # ------------------------------------------------------------------
    # Parametric (soft) faults
    # ------------------------------------------------------------------
    def _inject_parametric(self, circuit: Circuit,
                           fault: ParametricFault) -> None:
        if fault.device not in circuit:
            raise FaultInjectionError(
                f"parametric fault references unknown device {fault.device!r}")
        device = circuit.device(fault.device)
        factor = 1.0 + fault.relative_change
        parameter = fault.parameter.lower()

        if isinstance(device, Resistor) and parameter in ("r", "value", "resistance"):
            device.resistance *= factor
            return
        if isinstance(device, Capacitor) and parameter in ("c", "value", "capacitance"):
            device.capacitance *= factor
            return
        if isinstance(device, Inductor) and parameter in ("l", "value", "inductance"):
            device.inductance *= factor
            return
        if isinstance(device, Mosfet):
            if parameter == "w":
                device.w *= factor
                return
            if parameter == "l":
                device.l *= factor
                return
            # Model parameter deviation: give this device a private model card.
            base_model = circuit.model(device.model_name)
            if parameter not in base_model.params and parameter not in (
                    "vto", "kp", "gamma", "phi", "lambda", "tox"):
                raise FaultInjectionError(
                    f"unknown MOSFET parameter {fault.parameter!r}")
            private = base_model.copy()
            private.name = f"{base_model.name}_{fault.device.lower()}_f{fault.fault_id}"
            current = private.params.get(parameter)
            if current is None:
                from ..spice.devices.mosfet import DEFAULT_MOS_PARAMS
                current = DEFAULT_MOS_PARAMS.get(parameter, 0.0)
            private.params[parameter] = current * factor
            circuit.add_model(private)
            device.model_name = private.name
            return
        raise FaultInjectionError(
            f"cannot apply parametric fault to {type(device).__name__} "
            f"parameter {fault.parameter!r}")


def inject_fault(circuit: Circuit, fault: Fault,
                 model_options: FaultModelOptions | None = None) -> Circuit:
    """Convenience wrapper: inject one fault into a copy of ``circuit``."""
    return FaultInjector(circuit, model_options).inject(fault)
