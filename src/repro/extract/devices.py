"""Device recognition on top of the connectivity extraction.

MOSFETs are recognised as poly-over-diffusion channel regions; their W/L and
terminal nets are derived from the geometry, and their bulk is the substrate
(NMOS) or n-well (PMOS) net of :data:`repro.spice.netlist.SUPPLY_NETS`.
Parallel-plate capacitors are recognised as large poly/metal-1 overlaps
between different nets, valued at
:data:`repro.layout.technology.CAPACITOR_DENSITY`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExtractionError
from ..layout.geometry import Rect
from ..layout.layers import METAL1, NDIFF, POLY
from ..layout.layout import Layout
from ..layout.technology import CAPACITOR_DENSITY
from ..spice.netlist import SUPPLY_NETS
from .connectivity import ChannelRegion, ConnectivityResult

#: Minimum poly/metal-1 overlap recognised as an intentional capacitor [um^2].
MIN_CAPACITOR_AREA = 50.0


@dataclass
class ExtractedMosfet:
    """A MOSFET recognised in the layout (dimensions in micrometres)."""

    name: str
    kind: str                 # "nmos" or "pmos"
    drain_net: str
    gate_net: str
    source_net: str
    bulk_net: str
    width_um: float
    length_um: float
    channel: Rect

    @property
    def terminal_nets(self) -> dict[str, str]:
        return {"drain": self.drain_net, "gate": self.gate_net,
                "source": self.source_net, "bulk": self.bulk_net}


@dataclass
class ExtractedCapacitor:
    """A parallel-plate capacitor recognised in the layout."""

    name: str
    top_net: str
    bottom_net: str
    area_um2: float
    capacitance: float


class DeviceExtractor:
    """Recognise MOSFETs and capacitors from extracted connectivity."""

    def __init__(self, layout: Layout, connectivity: ConnectivityResult):
        self.layout = layout
        self.connectivity = connectivity

    # ------------------------------------------------------------------
    def run(self) -> tuple[list[ExtractedMosfet], list[ExtractedCapacitor]]:
        mosfets = [self._recognise_mosfet(i, ch)
                   for i, ch in enumerate(self.connectivity.channels, start=1)]
        capacitors = self._recognise_capacitors()
        return mosfets, capacitors

    # ------------------------------------------------------------------
    def _net_of_rect(self, layer, rect: Rect) -> str | None:
        """Net of the conducting piece on ``layer`` touching ``rect``."""
        for piece in self.connectivity.pieces:
            if piece.layer == layer and piece.rect.touches(rect):
                return self.connectivity.piece_net[piece.index]
        return None

    def _recognise_mosfet(self, index: int, channel: ChannelRegion
                          ) -> ExtractedMosfet:
        kind = "nmos" if channel.diffusion_layer == NDIFF else "pmos"
        gate_net = self._net_of_rect(POLY, channel.poly_shape.rect)
        if gate_net is None:
            raise ExtractionError(
                f"channel at {channel.rect} has no connected gate poly")

        # Source/drain: diffusion pieces of the parent diffusion shape that
        # touch the channel.
        terminals: list[tuple[str, Rect]] = []
        for piece in self.connectivity.pieces:
            if piece.layer != channel.diffusion_layer:
                continue
            if piece.source_shape is not channel.diffusion_shape:
                continue
            if piece.rect.touches(channel.rect):
                terminals.append((self.connectivity.piece_net[piece.index],
                                  piece.rect))
        if not terminals:
            raise ExtractionError(
                f"channel at {channel.rect} has no source/drain diffusion")
        if len(terminals) == 1:
            drain_net = source_net = terminals[0][0]
            orientation_rect = terminals[0][1]
        else:
            drain_net, source_net = terminals[1][0], terminals[0][0]
            orientation_rect = terminals[0][1]

        # Orientation: if the source/drain islands sit left/right of the
        # channel the current flows in x, so L is the channel width.
        if orientation_rect.overlap_length_y(channel.rect) > \
                orientation_rect.overlap_length_x(channel.rect):
            length_um = channel.rect.width
            width_um = channel.rect.height
        else:
            length_um = channel.rect.height
            width_um = channel.rect.width

        bulk_net = SUPPLY_NETS[0] if kind == "nmos" else SUPPLY_NETS[1]
        return ExtractedMosfet(
            name=f"mx{index}", kind=kind, drain_net=drain_net,
            gate_net=gate_net, source_net=source_net, bulk_net=bulk_net,
            width_um=width_um, length_um=length_um, channel=channel.rect)

    # ------------------------------------------------------------------
    def _recognise_capacitors(self) -> list[ExtractedCapacitor]:
        capacitors: list[ExtractedCapacitor] = []
        poly_pieces = [p for p in self.connectivity.pieces if p.layer == POLY]
        metal_pieces = [p for p in self.connectivity.pieces if p.layer == METAL1]
        index = 0
        for poly in poly_pieces:
            poly_net = self.connectivity.piece_net[poly.index]
            for metal in metal_pieces:
                metal_net = self.connectivity.piece_net[metal.index]
                if metal_net == poly_net:
                    continue
                overlap = poly.rect.intersection(metal.rect)
                if overlap is None:
                    continue
                if overlap.area < MIN_CAPACITOR_AREA:
                    continue
                index += 1
                capacitors.append(ExtractedCapacitor(
                    name=f"cx{index}", top_net=metal_net, bottom_net=poly_net,
                    area_um2=overlap.area,
                    capacitance=overlap.area * CAPACITOR_DENSITY))
        return capacitors
