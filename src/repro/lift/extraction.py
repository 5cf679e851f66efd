"""Global Layout Realistic Fault Mapping (GLRFM): the core of LIFT.

Starting from the extracted layout connectivity, every geometric failure
opportunity is enumerated, its critical area is evaluated against the defect
size distribution, and the resulting electrical fault (expressed in
schematic net/device names) is emitted with its probability of occurrence:

* **Bridges** -- pairs of conducting pieces of different nets on the same
  layer closer than the largest considered defect.
* **Wire opens** -- every conducting piece can be cut; graph analysis of the
  net determines whether this is a local open, a transistor stuck-open or a
  split node.
* **Contact/via opens** -- every cut can be missing; the effect is derived
  by removing the corresponding connectivity edges.

The output is a weighted :class:`~repro.lift.faultlist.FaultList`, the
interface to AnaFAULT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..defects import (
    DefectSizeDistribution,
    DefectStatistics,
    failure_probability,
    weighted_bridge_area,
    weighted_contact_area,
    weighted_open_area,
)
from ..errors import ExtractionError
from ..extract.connectivity import ConnectivityResult
from ..extract.lvs import LVSReport, compare
from ..extract.netlist import ExtractionResult
from ..layout.layers import CONTACT, METAL1, NDIFF, PDIFF, POLY, VIA
from ..layout.layout import Layout, Shape
from ..spice import Capacitor, Circuit, CurrentSource, Mosfet, VoltageSource
from .faultlist import FaultList
from .faults import (
    BridgingFault,
    Fault,
    OpenFault,
    SplitNodeFault,
    StuckOpenFault,
)


@dataclass
class FaultExtractionOptions:
    """Tuning knobs of the GLRFM extraction."""

    #: Minimum probability of occurrence for a fault to be reported.
    min_probability: float = 1e-9
    #: Nets regarded as supplies (shorts to them are always "global").
    supply_nets: tuple[str, ...] = ("0", "1")
    #: Drop bridges between two supply nets (power-to-ground shorts are
    #: gross defects caught by current testing, not by signal observation).
    exclude_supply_to_supply: bool = True
    #: Include faults with no observable electrical effect (dangling stubs).
    keep_ineffective_opens: bool = False


@dataclass
class _Anchor:
    """A device terminal (in schematic names) anchored to a layout piece."""

    device: str
    terminal: str
    net: str


class AnchorMap:
    """Map layout pieces to the device terminals of a target circuit.

    The one anchor-building pass both fault producers share: GLRFM
    (:class:`FaultExtractor`, mapping extracted device names to schematic
    ones through the LVS ``device_map``) and the defect-driven generator
    (:class:`repro.anafault.faultgen.FaultGenerator`, which targets the
    extracted circuit itself with the identity map).  ``device_map`` maps
    extracted device names to target-circuit names; ``None`` is the
    identity (the target *is* the extracted circuit).
    """

    def __init__(self, layout: Layout, extraction: ExtractionResult,
                 circuit: Circuit,
                 device_map: dict[str, str] | None = None) -> None:
        self.layout = layout
        self.extraction = extraction
        self.circuit = circuit
        self.device_map = device_map
        #: piece index -> terminals anchored on that piece.
        self.anchors: dict[int, list[_Anchor]] = {}
        #: (device lower, terminal) -> net, for topology lookups.
        self.device_terminal_net: dict[tuple[str, str], str] = {}
        #: Diagnostics (devices without a target-circuit match).
        self.messages: list[str] = []
        self._build()

    # ------------------------------------------------------------------
    def _target_name(self, extracted_name: str) -> str | None:
        if self.device_map is None:
            return extracted_name
        return self.device_map.get(extracted_name)

    def _build(self) -> None:
        connectivity = self.extraction.connectivity
        channels = connectivity.channels
        mosfets = self.extraction.mosfets
        if len(channels) != len(mosfets):
            raise ExtractionError("channel/device bookkeeping mismatch")

        for channel, extracted in zip(channels, mosfets):
            target_name = self._target_name(extracted.name)
            if target_name is None:
                self.messages.append(
                    f"extracted device {extracted.name} has no schematic "
                    "match; its terminal opens are skipped")
                continue
            device = self.circuit.device(target_name)
            drain_net, gate_net, source_net, _bulk = device.nodes

            # Gate anchor: the poly piece over the channel.
            for piece in connectivity.pieces:
                if piece.layer == POLY and piece.rect.touches(channel.rect):
                    self.add(piece.index, target_name, "gate", gate_net)
                    break
            # Source/drain anchors: diffusion islands of the parent shape.
            assigned: set[str] = set()
            for piece in connectivity.pieces:
                if piece.layer != channel.diffusion_layer:
                    continue
                if piece.source_shape is not channel.diffusion_shape:
                    continue
                if not piece.rect.touches(channel.rect):
                    continue
                net = connectivity.piece_net[piece.index]
                if net == drain_net and "drain" not in assigned:
                    terminal = "drain"
                elif net == source_net and "source" not in assigned:
                    terminal = "source"
                elif "drain" not in assigned:
                    terminal = "drain"
                elif "source" not in assigned:
                    terminal = "source"
                else:
                    continue
                assigned.add(terminal)
                self.add(piece.index, target_name, terminal, net)

        self._anchor_capacitors()
        self._anchor_ports()

    def _anchor_capacitors(self) -> None:
        connectivity = self.extraction.connectivity
        for extracted in self.extraction.capacitors:
            target_name = self._target_name(extracted.name)
            if target_name is None:
                continue
            device = self.circuit.device(target_name)
            pos_net, neg_net = device.nodes
            # Anchor the plates: largest metal piece on the top net and
            # largest poly piece on the bottom net.
            best: dict[str, tuple[float, int]] = {}
            for piece in connectivity.pieces:
                net = connectivity.piece_net[piece.index]
                if piece.layer == METAL1 and net == extracted.top_net:
                    key = "top"
                elif piece.layer == POLY and net == extracted.bottom_net:
                    key = "bottom"
                else:
                    continue
                if key not in best or piece.rect.area > best[key][0]:
                    best[key] = (piece.rect.area, piece.index)
            terminal_for_net = {pos_net: "pos", neg_net: "neg"}
            if "top" in best:
                self.add(best["top"][1], target_name,
                         terminal_for_net.get(extracted.top_net, "pos"),
                         extracted.top_net)
            if "bottom" in best:
                self.add(best["bottom"][1], target_name,
                         terminal_for_net.get(extracted.bottom_net, "neg"),
                         extracted.bottom_net)

    def _anchor_ports(self) -> None:
        """Anchor the terminals of independent sources at the net labels."""
        connectivity = self.extraction.connectivity
        for device in self.circuit.devices:
            if not isinstance(device, (VoltageSource, CurrentSource)):
                continue
            for terminal, net in zip(("pos", "neg"), device.nodes):
                if net == "0":
                    continue
                for label in self.layout.labels:
                    if label.text != net:
                        continue
                    for piece in connectivity.pieces:
                        if (piece.layer == label.layer
                                and piece.rect.contains_point(label.x, label.y)):
                            self.add(piece.index, device.name, terminal, net)
                            break
                    break

    def add(self, piece_index: int, device: str, terminal: str,
            net: str) -> None:
        self.anchors.setdefault(piece_index, []).append(
            _Anchor(device, terminal, net))
        self.device_terminal_net[(device.lower(), terminal)] = net

    def terminals_of(self, piece_indices: Iterable[int]) -> list[_Anchor]:
        """All terminals anchored on any of the given pieces."""
        terminals: list[_Anchor] = []
        for index in piece_indices:
            terminals.extend(self.anchors.get(index, []))
        return terminals


def open_effect(connectivity: ConnectivityResult, anchor_map: AnchorMap,
                circuit: Circuit, seed_piece: int,
                removed_nodes: Sequence[int] = (),
                removed_edges: Sequence[tuple[int, int]] = ()
                ) -> Fault | None:
    """Electrical effect of cutting pieces/edges out of one net.

    Classifies the open by graph analysis of the net containing
    ``seed_piece`` after removing ``removed_nodes`` (piece indices) and
    ``removed_edges``: a disconnected terminal yields an
    :class:`~repro.lift.faults.OpenFault` (or
    :class:`~repro.lift.faults.StuckOpenFault` for a MOSFET drain/source),
    a net split into several terminal groups yields a
    :class:`~repro.lift.faults.SplitNodeFault`, and ``None`` means the cut
    is electrically ineffective (a dangling stub).  The returned fault is
    a *template*: ``fault_id``/``probability``/``origin_layer`` are left
    at their defaults for the caller to fill in.

    Shared by GLRFM and the defect-driven generator so both produce
    byte-identical fault records for the same cut — exactly the property
    the collapsing stage's equivalence classes rely on.
    """
    net = connectivity.piece_net.get(seed_piece)
    if net is None:
        return None
    isolated_terminals = anchor_map.terminals_of(removed_nodes)
    if isolated_terminals:
        # The cut piece itself carried a terminal: that terminal is
        # disconnected from everything else on the net.
        return _terminal_open_template(circuit, isolated_terminals[0])
    components = connectivity.net_graph(net).connected_components(
        removed_nodes, removed_edges)
    groups = [anchor_map.terminals_of(component) for component in components]
    groups = [g for g in groups if g]
    if len(groups) <= 1:
        return None
    # Net splits into two (or more) groups: use the smallest group as the
    # split-off side.
    groups.sort(key=len)
    small = groups[0]
    if len(small) == 1:
        return _terminal_open_template(circuit, small[0])
    group_b = tuple((a.device, a.terminal) for a in small)
    return SplitNodeFault(0, description=f"open splits net {net}",
                          net=net, group_b=group_b)


def _terminal_open_template(circuit: Circuit, anchor: _Anchor) -> Fault:
    """Open/stuck-open fault template for one disconnected terminal."""
    device = None
    if anchor.device.lower() in {d.name.lower() for d in circuit.devices}:
        device = circuit.device(anchor.device)
    if isinstance(device, Mosfet) and anchor.terminal in ("drain", "source"):
        return StuckOpenFault(0,
                              description=(f"{anchor.device} {anchor.terminal} "
                                           "disconnected"),
                              device=anchor.device, terminal=anchor.terminal)
    return OpenFault(0,
                     description=f"open at {anchor.device}.{anchor.terminal}",
                     device=anchor.device, terminal=anchor.terminal)


@dataclass
class FaultExtractionReport:
    """Diagnostics of one GLRFM run."""

    candidate_bridges: int = 0
    candidate_opens: int = 0
    candidate_cut_opens: int = 0
    suppressed_below_threshold: int = 0
    ineffective_opens: int = 0
    messages: list[str] = field(default_factory=list)


class FaultExtractor:
    """GLRFM fault extraction from an extracted layout."""

    def __init__(self, layout: Layout, extraction: ExtractionResult,
                 schematic: Circuit, lvs: LVSReport | None = None,
                 statistics: DefectStatistics | None = None,
                 distribution: DefectSizeDistribution | None = None,
                 options: FaultExtractionOptions | None = None) -> None:
        self.layout = layout
        self.extraction = extraction
        self.schematic = schematic
        self.lvs = lvs or compare(extraction.circuit, schematic)
        self.statistics = statistics or DefectStatistics.table_1()
        self.distribution = distribution or DefectSizeDistribution()
        self.options = options or FaultExtractionOptions()
        self.report = FaultExtractionReport()
        self._anchor_map: AnchorMap | None = None
        self._anchors: dict[int, list[_Anchor]] = {}
        self._device_terminal_net: dict[tuple[str, str], str] = {}

    # ------------------------------------------------------------------
    def run(self) -> FaultList:
        self._build_anchors()
        candidates: list = []
        candidates.extend(self._extract_bridges())
        candidates.extend(self._extract_wire_opens())
        candidates.extend(self._extract_cut_opens())

        merged = FaultList("GLRFM candidates")
        merged.extend(candidates)
        merged = merged.merge_equivalent()
        for index, fault in enumerate(
                sorted(merged.faults, key=lambda f: f.fault_id), start=1):
            fault.fault_id = index
        total_candidates = len(merged)

        final = merged.filter_probability(self.options.min_probability)
        self.report.suppressed_below_threshold = total_candidates - len(final)
        final = final.sorted_by_probability()
        final.name = "LIFT realistic faults (GLRFM)"
        final.metadata.update({
            "source": "glrfm",
            "layout": self.layout.name,
            "min_probability": self.options.min_probability,
            "reference_density": self.statistics.reference_density,
            "candidates": total_candidates,
        })
        return final

    # ------------------------------------------------------------------
    # Anchors: map layout pieces to schematic device terminals
    # ------------------------------------------------------------------
    def _build_anchors(self) -> None:
        self._anchor_map = AnchorMap(self.layout, self.extraction,
                                     self.schematic,
                                     device_map=self.lvs.device_map)
        self._anchors = self._anchor_map.anchors
        self._device_terminal_net = self._anchor_map.device_terminal_net
        self.report.messages.extend(self._anchor_map.messages)

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
    def _density_for_layer(self, layer_name: str, kind: str) -> float:
        return self.statistics.density(layer_name, kind)

    def _extract_bridges(self) -> list[BridgingFault]:
        connectivity = self.extraction.connectivity
        accumulated: dict[tuple[str, str, str], float] = {}
        origins: dict[tuple[str, str, str], list[str]] = {}
        max_size = self.distribution.max_size

        by_layer: dict[str, list] = {}
        for piece in connectivity.pieces:
            by_layer.setdefault(piece.layer.name, []).append(piece)

        for layer_name, pieces in by_layer.items():
            if self._density_for_layer(layer_name, "short") <= 0.0:
                continue
            for i, a in enumerate(pieces):
                net_a = connectivity.piece_net[a.index]
                for b in pieces[i + 1:]:
                    net_b = connectivity.piece_net[b.index]
                    if net_a == net_b:
                        continue
                    self.report.candidate_bridges += 1
                    spacing, facing = a.rect.facing(b.rect)
                    if spacing >= max_size:
                        continue
                    area = weighted_bridge_area(self.distribution, spacing, facing)
                    if area <= 0.0:
                        continue
                    key = (min(net_a, net_b), max(net_a, net_b), layer_name)
                    accumulated[key] = accumulated.get(key, 0.0) + area
                    origins.setdefault(key, []).append(
                        f"{layer_name}@({a.rect.center[0]:.1f},"
                        f"{a.rect.center[1]:.1f}) spacing={spacing:.1f}um")

        faults: list[BridgingFault] = []
        next_id = 1
        for (net_a, net_b, layer_name), area in sorted(accumulated.items()):
            if (self.options.exclude_supply_to_supply
                    and net_a in self.options.supply_nets
                    and net_b in self.options.supply_nets):
                continue
            probability = failure_probability(
                area, self._density_for_layer(layer_name, "short"))
            scope = self._bridge_scope(net_a, net_b)
            faults.append(BridgingFault(
                next_id, probability=probability, origin_layer=layer_name,
                description=f"bridge {net_a}-{net_b} on {layer_name}",
                origins=origins[(net_a, net_b, layer_name)][:4],
                net_a=net_a, net_b=net_b, scope=scope))
            next_id += 1
        return faults

    def _bridge_scope(self, net_a: str, net_b: str) -> str:
        if net_a in self.options.supply_nets or net_b in self.options.supply_nets:
            return "global"
        for device in self.schematic.devices:
            if isinstance(device, (Mosfet, Capacitor)):
                if net_a in device.nodes and net_b in device.nodes:
                    return "local"
        return "global"

    # ------------------------------------------------------------------
    # Opens
    # ------------------------------------------------------------------
    def _extract_wire_opens(self) -> list:
        connectivity = self.extraction.connectivity
        faults: list = []
        next_id = 10_000
        for piece in connectivity.pieces:
            layer_name = piece.layer.name
            density = self._density_for_layer(layer_name, "open")
            if density <= 0.0:
                continue
            self.report.candidate_opens += 1
            width, length = piece.rect.min_dimension, piece.rect.max_dimension
            area = weighted_open_area(self.distribution, width, length)
            probability = failure_probability(area, density)
            if probability <= 0.0:
                continue
            fault = self._open_effect(piece.index, probability, layer_name,
                                      removed_nodes=(piece.index,),
                                      removed_edges=(), fault_id=next_id)
            if fault is not None:
                faults.append(fault)
            next_id += 1
        return faults

    def _cut_mechanism(self, cut_shape: Shape, cut_layer_name: str) -> str:
        if cut_layer_name == VIA.name:
            return "via"
        # Contact: look at what lies underneath.
        for piece in self.extraction.connectivity.pieces:
            if piece.layer in (NDIFF, PDIFF) and piece.rect.touches(cut_shape.rect):
                return "contact_diff"
            if piece.layer == POLY and piece.rect.touches(cut_shape.rect):
                return "contact_poly"
        return "contact_diff"

    def _extract_cut_opens(self) -> list:
        connectivity = self.extraction.connectivity
        faults: list = []
        next_id = 20_000

        # Group graph edges by the cut shape that creates them.
        edges_by_cut: dict[int, list[tuple[int, int]]] = {}
        cut_shape_by_id: dict[int, Shape] = {}
        cut_layer_by_id: dict[int, str] = {}
        for u, v, data in connectivity.graph.edges():
            cut = data.get("cut")
            if cut is None:
                continue
            key = id(cut)
            edges_by_cut.setdefault(key, []).append((u, v))
            cut_shape_by_id[key] = cut
            cut_layer_by_id[key] = data.get("cut_layer", CONTACT.name)

        for key, edges in edges_by_cut.items():
            cut_shape = cut_shape_by_id[key]
            mechanism = self._cut_mechanism(cut_shape, cut_layer_by_id[key])
            density = self.statistics.density(mechanism, "open")
            if density <= 0.0:
                continue
            self.report.candidate_cut_opens += 1
            area = weighted_contact_area(self.distribution,
                                         cut_shape.rect.min_dimension)
            probability = failure_probability(area, density)
            fault = self._open_effect(edges[0][0], probability, mechanism,
                                      removed_nodes=(), removed_edges=edges,
                                      fault_id=next_id)
            if fault is not None:
                faults.append(fault)
            next_id += 1
        return faults

    # ------------------------------------------------------------------
    def _open_effect(self, seed_piece: int, probability: float,
                     layer_name: str, removed_nodes: Sequence[int],
                     removed_edges: Sequence[tuple[int, int]],
                     fault_id: int) -> Fault | None:
        """Classify the electrical effect of removing nodes/edges around the
        net containing ``seed_piece`` (see :func:`open_effect`)."""
        anchor_map = self._anchor_map
        if anchor_map is None:
            raise ExtractionError("anchors not built; call run()")
        fault = open_effect(self.extraction.connectivity, anchor_map,
                            self.schematic, seed_piece,
                            removed_nodes=removed_nodes,
                            removed_edges=removed_edges)
        if fault is None:
            self.report.ineffective_opens += 1
            return None
        fault.fault_id = fault_id
        fault.probability = probability
        fault.origin_layer = layer_name
        return fault


def extract_faults(layout: Layout, extraction: ExtractionResult,
                   schematic: Circuit, **kwargs: Any) -> FaultList:
    """Convenience wrapper: run GLRFM with default settings."""
    return FaultExtractor(layout, extraction, schematic, **kwargs).run()
