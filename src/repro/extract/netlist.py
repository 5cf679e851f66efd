"""Build an extracted :class:`~repro.spice.netlist.Circuit` from a layout.

The extracted MOSFETs use the default ``nch``/``pch`` model cards of
:func:`repro.circuits.models.add_default_models`, the names the schematic
circuits use, so LVS compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spice import Capacitor, Circuit, Mosfet
from ..circuits.models import add_default_models
from ..layout.layout import Layout
from .connectivity import ConnectivityExtractor, ConnectivityResult
from .devices import (
    DeviceExtractor,
    ExtractedCapacitor,
    ExtractedMosfet,
)


@dataclass
class ExtractionResult:
    """Everything produced by the layout-to-netlist extraction."""

    circuit: Circuit
    connectivity: ConnectivityResult
    mosfets: list[ExtractedMosfet] = field(default_factory=list)
    capacitors: list[ExtractedCapacitor] = field(default_factory=list)

    @property
    def net_names(self) -> list[str]:
        return self.connectivity.net_names()

    def summary(self) -> dict[str, int]:
        return {
            "nets": len(self.connectivity.nets),
            "mosfets": len(self.mosfets),
            "capacitors": len(self.capacitors),
            "pieces": len(self.connectivity.pieces),
        }


class NetlistExtractor:
    """Full extraction: connectivity + devices + circuit construction."""

    def __init__(self, layout: Layout):
        self.layout = layout

    def run(self) -> ExtractionResult:
        connectivity = ConnectivityExtractor(self.layout).run()
        mosfets, capacitors = DeviceExtractor(self.layout, connectivity).run()

        circuit = Circuit(f"extracted from {self.layout.name}")
        add_default_models(circuit)
        for mosfet in mosfets:
            model = "nch" if mosfet.kind == "nmos" else "pch"
            circuit.add(Mosfet(mosfet.name, mosfet.drain_net, mosfet.gate_net,
                               mosfet.source_net, mosfet.bulk_net, model,
                               w=mosfet.width_um * 1e-6,
                               l=mosfet.length_um * 1e-6))
        for capacitor in capacitors:
            circuit.add(Capacitor(capacitor.name, capacitor.top_net,
                                  capacitor.bottom_net, capacitor.capacitance))
        return ExtractionResult(circuit=circuit, connectivity=connectivity,
                                mosfets=mosfets, capacitors=capacitors)


def extract_netlist(layout: Layout) -> ExtractionResult:
    """Convenience wrapper around :class:`NetlistExtractor`."""
    return NetlistExtractor(layout).run()
