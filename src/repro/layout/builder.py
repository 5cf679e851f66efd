"""Procedural layout generation.

The original VCO of the paper was laid out by hand; as a stand-in this module
generates a realistic Manhattan layout for any flat MOS circuit:

* transistors are drawn as diffusion islands crossed by a vertical poly gate
  with contacted source/drain pads (multiple contacts on wide devices),
* NMOS devices are placed on a bottom row, PMOS devices on a top row inside
  an n-well,
* every net receives a horizontal metal-1 trunk in the routing channel
  between the rows; device pins reach their trunk through metal-2 verticals
  and vias,
* the supply and ground nets (:data:`repro.spice.netlist.SUPPLY_NETS`)
  additionally get wide metal-1 rails, and the PMOS n-well is tied to the
  supply,
* capacitors are drawn as poly/metal-1 plate pairs sized by
  :data:`repro.layout.technology.CAPACITOR_DENSITY`.

The resulting geometry has exactly the properties the fault extractor needs:
parallel wires of different nets at design-rule spacing (bridging critical
areas), long thin wires (open critical areas) and contacts/vias (contact
open faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LayoutError
from ..spice import Capacitor, Circuit, Mosfet
from ..spice.netlist import SUPPLY_NETS
from .geometry import Rect
from .layers import CONTACT, METAL1, METAL2, NDIFF, NWELL, PDIFF, POLY, VIA
from .layout import Layout
from .technology import CAPACITOR_DENSITY, Technology, default_technology

#: Scale factor from SPICE metres to layout micrometres.
METRES_TO_UM = 1e6
#: Horizontal placement gap between neighbouring transistors [um].
TRANSISTOR_GAP = 6.0
#: Width of the supply and ground rails [um].
RAIL_WIDTH = 6.0


@dataclass
class Pin:
    """A connection point of a placed device: a metal-1 pad on a net."""

    device: str
    terminal: str
    net: str
    rect: Rect
    row: str  # "nmos", "pmos" or "other"


@dataclass
class PlacedTransistor:
    """Book-keeping record of one generated transistor."""

    name: str
    kind: str
    channel: Rect
    pins: dict[str, Pin] = field(default_factory=dict)
    contact_count: dict[str, int] = field(default_factory=dict)


class LayoutGenerator:
    """Generate a :class:`Layout` for a flat MOS circuit."""

    def __init__(self, circuit: Circuit, technology: Technology | None = None):
        self.circuit = circuit
        self.tech = technology or default_technology()
        self.layout = Layout(name=f"{(circuit.title or 'cell').split()[0].lower()}_layout")
        self.pins: list[Pin] = []
        self.placed: dict[str, PlacedTransistor] = {}
        self._net_order: list[str] = []
        self._trunk_y: dict[str, float] = {}
        self._trunk_span: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Layout:
        """Generate the layout and return it."""
        mosfets = self.circuit.devices_of_type(Mosfet)
        if not mosfets:
            raise LayoutError("layout generation needs at least one MOSFET")
        capacitors = self.circuit.devices_of_type(Capacitor)

        self._collect_net_order()

        channel_tracks = len(self._net_order)
        m1_pitch = self.tech.routing_pitch(METAL1)
        nmos_row_top = 34.0
        channel_y0 = nmos_row_top + 8.0
        channel_y1 = channel_y0 + channel_tracks * m1_pitch
        pmos_row_base = channel_y1 + 8.0

        # Devices are placed left to right in netlist order with a single
        # shared x cursor: NMOS drop to the bottom row, PMOS rise to the top
        # row.  Sharing the cursor guarantees that the vertical metal-2
        # risers of different devices never overlap.
        x_cursor = 0.0
        for device in mosfets:
            if self._kind(device) == "n":
                width = self._draw_transistor(device, "nmos", x_cursor, 10.0,
                                              gate_pad_side="north")
            else:
                width = self._draw_transistor(device, "pmos", x_cursor,
                                              pmos_row_base,
                                              gate_pad_side="south")
            x_cursor += width + TRANSISTOR_GAP
        # Capacitors go to the right of the transistor rows, above the
        # routing channel, so that their large plates never overlap foreign
        # trunks.
        cap_x0 = self._row_extent() + 12.0
        self._place_capacitors(capacitors, cap_x0, pmos_row_base + 4.0)

        self._assign_tracks(channel_y0)
        self._route_trunks()
        self._draw_rails(pmos_row_base)
        self._draw_well(pmos_row_base)
        self._add_labels()
        return self.layout

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _kind(self, mosfet: Mosfet) -> str:
        model = self.circuit.model(mosfet.model_name)
        return "n" if model.kind == "nmos" else "p"

    def _collect_net_order(self) -> None:
        """Nets in order of first appearance (determines trunk stacking).

        Only devices that are actually laid out (MOSFETs and capacitors)
        contribute nets; sources and test-bench impedances live outside the
        chip.
        """
        seen: list[str] = []
        for device in self.circuit.devices:
            if not isinstance(device, (Mosfet, Capacitor)):
                continue
            for node in device.nodes:
                if node not in seen:
                    seen.append(node)
        self._net_order = seen

    def _row_extent(self) -> float:
        box = self.layout.bbox()
        return box.x2 if box else 0.0

    # ------------------------------------------------------------------
    # Transistor generation
    # ------------------------------------------------------------------
    def _draw_transistor(self, device: Mosfet, row: str, x0: float,
                         y0: float, gate_pad_side: str) -> float:
        tech = self.tech
        kind = self._kind(device)
        diff_layer = NDIFF if kind == "n" else PDIFF
        w_um = device.w * METRES_TO_UM
        l_um = device.l * METRES_TO_UM
        ext = tech.diffusion_extension
        cut = tech.cut_size
        enc = tech.cut_enclosure

        drain_node, gate_node, source_node, _bulk = device.nodes

        diff_width = ext + l_um + ext
        diff = self.layout.add_rect(diff_layer, x0, y0, x0 + diff_width, y0 + w_um,
                                    net_hint=None, purpose=f"{device.name}:active")
        # Gate poly crossing the diffusion vertically.
        gate_x1 = x0 + ext
        gate_x2 = gate_x1 + l_um
        poly_y1 = y0 - tech.poly_endcap
        poly_y2 = y0 + w_um + tech.poly_endcap
        self.layout.add_rect(POLY, gate_x1, poly_y1, gate_x2, poly_y2,
                             net_hint=gate_node, purpose=f"{device.name}:gate")
        channel = Rect(gate_x1, y0, gate_x2, y0 + w_um)

        record = PlacedTransistor(device.name, kind, channel)

        # Source/drain contacts and metal-1 pads.  Wide devices get a double
        # (redundant) contact as in common layout practice; only the
        # narrowest devices are forced to a single contact, which is what
        # leaves them exposed to transistor stuck-open faults.
        double_contacts = w_um >= 5.0
        pad = (2 * cut + 1.0 + 2 * enc) if double_contacts else (cut + 2 * enc)
        for terminal, node, cx0 in (("source", source_node, x0 + 0.5),
                                    ("drain", drain_node, x0 + diff_width - 0.5 - pad)):
            pad_height = max(min(w_um - 0.5, w_um), cut + 2 * enc)
            pad_rect = Rect(cx0, y0, cx0 + pad, y0 + pad_height)
            self.layout.add_rect(METAL1, pad_rect.x1, pad_rect.y1, pad_rect.x2,
                                 pad_rect.y2, net_hint=node,
                                 purpose=f"{device.name}:{terminal}_pad")
            contact_y = y0 + enc if w_um >= cut + 2 * enc else y0 + 0.1
            contact_xs = [pad_rect.x1 + enc]
            if double_contacts:
                contact_xs.append(pad_rect.x1 + enc + cut + 1.0)
            for cx in contact_xs:
                self.layout.add_rect(CONTACT, cx, contact_y, cx + cut,
                                     contact_y + cut, net_hint=node,
                                     purpose=f"{device.name}:{terminal}_contact")
            pin = Pin(device.name, terminal, node, pad_rect, row)
            record.pins[terminal] = pin
            record.contact_count[terminal] = len(contact_xs)
            self.pins.append(pin)

        # Gate pad: a poly landing area with a contact to metal-1 on the
        # channel side of the row.
        pad_size = cut + 2 * enc
        gate_cx = 0.5 * (gate_x1 + gate_x2)
        if gate_pad_side == "north":
            pad_y1 = poly_y2
            pad_y2 = poly_y2 + pad_size
        else:
            pad_y2 = poly_y1
            pad_y1 = poly_y1 - pad_size
        pad_x1 = gate_cx - pad_size / 2.0
        self.layout.add_rect(POLY, pad_x1, pad_y1, pad_x1 + pad_size, pad_y2,
                             net_hint=gate_node, purpose=f"{device.name}:gate_pad")
        self.layout.add_rect(CONTACT, pad_x1 + enc, pad_y1 + enc,
                             pad_x1 + enc + cut, pad_y1 + enc + cut,
                             net_hint=gate_node,
                             purpose=f"{device.name}:gate_contact")
        gate_m1 = Rect(pad_x1, pad_y1, pad_x1 + pad_size, pad_y2)
        self.layout.add_rect(METAL1, gate_m1.x1, gate_m1.y1, gate_m1.x2, gate_m1.y2,
                             net_hint=gate_node, purpose=f"{device.name}:gate_m1")
        gate_pin = Pin(device.name, "gate", gate_node, gate_m1, row)
        record.pins["gate"] = gate_pin
        record.contact_count["gate"] = 1
        self.pins.append(gate_pin)

        self.placed[device.name] = record
        return diff_width

    # ------------------------------------------------------------------
    # Capacitors
    # ------------------------------------------------------------------
    def _place_capacitors(self, capacitors: list[Capacitor], x0: float,
                          y0: float) -> None:
        tech = self.tech
        cut = tech.cut_size
        enc = tech.cut_enclosure
        for cap in capacitors:
            area_um2 = cap.capacitance / CAPACITOR_DENSITY
            side = max(area_um2 ** 0.5, 10.0)
            top_net, bottom_net = cap.nodes
            # Bottom plate: poly; top plate: metal1, slightly smaller.
            self.layout.add_rect(POLY, x0, y0, x0 + side, y0 + side,
                                 net_hint=bottom_net,
                                 purpose=f"{cap.name}:bottom_plate")
            self.layout.add_rect(METAL1, x0 + 1, y0 + 1, x0 + side - 1,
                                 y0 + side - 1, net_hint=top_net,
                                 purpose=f"{cap.name}:top_plate")
            # Bottom plate strap: a poly finger leaving the plate to the left
            # with a contact to metal-1, well clear of the top-plate pin so
            # that the two risers never overlap.
            pad_size = cut + 2 * enc
            strap_x = x0 - 2.0 * pad_size
            self.layout.add_rect(POLY, strap_x, y0, x0, y0 + pad_size,
                                 net_hint=bottom_net,
                                 purpose=f"{cap.name}:bottom_strap")
            self.layout.add_rect(CONTACT, strap_x + enc, y0 + enc,
                                 strap_x + enc + cut, y0 + enc + cut,
                                 net_hint=bottom_net,
                                 purpose=f"{cap.name}:bottom_contact")
            bottom_pad = Rect(strap_x, y0, strap_x + pad_size, y0 + pad_size)
            self.layout.add_rect(METAL1, bottom_pad.x1, bottom_pad.y1,
                                 bottom_pad.x2, bottom_pad.y2,
                                 net_hint=bottom_net,
                                 purpose=f"{cap.name}:bottom_pad")
            self.pins.append(Pin(cap.name, "bottom", bottom_net, bottom_pad, "other"))
            # Top plate pin is simply a corner region of the metal plate.
            top_pad = Rect(x0 + 1, y0 + 1, x0 + 1 + pad_size, y0 + 1 + pad_size)
            self.pins.append(Pin(cap.name, "top", top_net, top_pad, "other"))
            x0 += side + 10.0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _assign_tracks(self, channel_y0: float) -> None:
        pitch = self.tech.routing_pitch(METAL1)
        for index, net in enumerate(self._net_order):
            self._trunk_y[net] = channel_y0 + index * pitch

    def _route_trunks(self) -> None:
        tech = self.tech
        m1_width = tech.rules(METAL1).routing_width
        m2_width = tech.rules(METAL2).routing_width
        cut = tech.cut_size
        enc = tech.cut_enclosure

        pins_by_net: dict[str, list[Pin]] = {}
        for pin in self.pins:
            pins_by_net.setdefault(pin.net, []).append(pin)

        # All trunks share a common left edge (where the supply rails tap in)
        # and run at least to the rightmost pin of their net, giving the
        # channel the parallel-wire structure of a real routing channel.
        channel_x_lo = -24.0
        for net in self._net_order:
            net_pins = pins_by_net.get(net, [])
            y = self._trunk_y[net]
            if net_pins:
                x_hi = max(p.rect.x2 for p in net_pins) + 2.0
            else:
                x_hi = 4.0
            x_lo = channel_x_lo
            self._trunk_span[net] = (x_lo, x_hi)
            self.layout.add_rect(METAL1, x_lo, y, x_hi, y + m1_width,
                                 net_hint=net, purpose=f"net{net}:trunk")
            for pin in net_pins:
                self._connect_pin_to_trunk(pin, y, m1_width, m2_width, cut, enc)

    def _connect_pin_to_trunk(self, pin: Pin, trunk_y: float, m1_width: float,
                              m2_width: float, cut: float, enc: float) -> None:
        cx = 0.5 * (pin.rect.x1 + pin.rect.x2)
        x1 = cx - m2_width / 2.0
        x2 = cx + m2_width / 2.0
        pin_cy = 0.5 * (pin.rect.y1 + pin.rect.y2)
        y_lo = min(pin_cy - m2_width / 2.0, trunk_y)
        y_hi = max(pin_cy + m2_width / 2.0, trunk_y + m1_width)
        # Vertical metal-2 column from the pin to the trunk.
        self.layout.add_rect(METAL2, x1, y_lo, x2, y_hi, net_hint=pin.net,
                             purpose=f"{pin.device}:{pin.terminal}_riser")
        # Redundant via pairs at the pin (metal1 pad to metal2) and at the
        # trunk, side by side within the riser width.
        for suffix, offset in (("a", -cut), ("b", 0.0)):
            via_x = cx + offset
            self.layout.add_rect(VIA, via_x, pin_cy - cut / 2.0, via_x + cut,
                                 pin_cy + cut / 2.0, net_hint=pin.net,
                                 purpose=f"{pin.device}:{pin.terminal}_via_pin_{suffix}")
            self.layout.add_rect(VIA, via_x, trunk_y + (m1_width - cut) / 2.0,
                                 via_x + cut, trunk_y + (m1_width + cut) / 2.0,
                                 net_hint=pin.net,
                                 purpose=f"{pin.device}:{pin.terminal}_via_trunk_{suffix}")

    def _draw_rails(self, pmos_row_base: float) -> None:
        """Wide supply/ground rails tied to their channel trunks."""
        tech = self.tech
        gnd_net, vdd_net = SUPPLY_NETS
        box = self.layout.bbox()
        if box is None:
            return
        x_lo, x_hi = box.x1 - 4.0, box.x2 + 4.0
        cut = tech.cut_size
        m2_width = tech.rules(METAL2).routing_width

        rails = (
            (gnd_net, Rect(x_lo, -RAIL_WIDTH - 4.0, x_hi, -4.0), 0),
            (vdd_net, Rect(x_lo, box.y2 + 4.0, x_hi, box.y2 + 4.0 + RAIL_WIDTH), 1),
        )
        for net, rect, slot in rails:
            if net not in self._trunk_y:
                continue
            self.layout.add_rect(METAL1, rect.x1, rect.y1, rect.x2, rect.y2,
                                 net_hint=net, purpose=f"net{net}:rail")
            # Metal-2 strap from the rail up/down to the trunk; the two rails
            # use different riser columns at the left edge of their trunks.
            trunk_y = self._trunk_y[net]
            strap_x = -12.0 - slot * tech.routing_pitch(METAL2)
            y_lo = min(rect.y1, trunk_y)
            y_hi = max(rect.y2, trunk_y + tech.rules(METAL1).routing_width)
            self.layout.add_rect(METAL2, strap_x, y_lo, strap_x + m2_width, y_hi,
                                 net_hint=net, purpose=f"net{net}:rail_riser")
            rail_cy = 0.5 * (rect.y1 + rect.y2)
            self.layout.add_rect(VIA, strap_x + 1.0, rail_cy - cut / 2.0,
                                 strap_x + 1.0 + cut, rail_cy + cut / 2.0,
                                 net_hint=net, purpose=f"net{net}:rail_via")
            self.layout.add_rect(VIA, strap_x + 1.0, trunk_y + 0.5,
                                 strap_x + 1.0 + cut, trunk_y + 0.5 + cut,
                                 net_hint=net, purpose=f"net{net}:trunk_via")

    def _draw_well(self, pmos_row_base: float) -> None:
        pmos_rects = self.layout.rects_on(PDIFF)
        if not pmos_rects:
            return
        x1 = min(r.x1 for r in pmos_rects) - 5.0
        x2 = max(r.x2 for r in pmos_rects) + 5.0
        y1 = min(r.y1 for r in pmos_rects) - 5.0
        y2 = max(r.y2 for r in pmos_rects) + 5.0
        self.layout.add_rect(NWELL, x1, y1, x2, y2, net_hint=SUPPLY_NETS[1],
                             purpose="nwell")

    def _add_labels(self) -> None:
        m1_width = self.tech.rules(METAL1).routing_width
        for net, y in self._trunk_y.items():
            x_lo, _ = self._trunk_span.get(net, (-4.0, 4.0))
            self.layout.add_label(METAL1, x_lo + 1.0, y + m1_width / 2.0, net)


def generate_layout(circuit: Circuit,
                    technology: Technology | None = None) -> Layout:
    """Convenience wrapper: generate a layout for ``circuit``."""
    return LayoutGenerator(circuit, technology).generate()
