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

:func:`failure_sites` is the one enumerator of these opportunities; GLRFM
(:class:`FaultExtractor`) and the defect-driven generator
(:class:`repro.anafault.faultgen.FaultGenerator`) differ only in how they
weight and group its records.  Bridges between the two supply nets
(:data:`repro.spice.netlist.SUPPLY_NETS`) are never enumerated: a
power-to-ground short is a gross defect caught by current testing, not by
signal observation.  The output is a weighted
:class:`~repro.lift.faultlist.FaultList`, the interface to AnaFAULT; its
one setting is :class:`FaultExtractor`'s ``min_probability`` threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from ..defects import (
    DefectSizeDistribution,
    DefectStatistics,
    failure_probability,
    weighted_bridge_area,
    weighted_contact_area,
    weighted_open_area,
)
from ..errors import ExtractionError
from ..extract.connectivity import ConductingPiece, ConnectivityResult
from ..extract.lvs import LVSReport, compare
from ..extract.netlist import ExtractionResult
from ..layout.layers import CONTACT, METAL1, NDIFF, PDIFF, POLY, VIA
from ..layout.geometry import Rect
from ..layout.layout import Layout, Shape
from ..spice import Capacitor, Circuit, CurrentSource, Mosfet, VoltageSource
from ..spice.netlist import SUPPLY_NETS
from .faultlist import FaultList
from .faults import (
    BridgingFault,
    Fault,
    OpenFault,
    SplitNodeFault,
    StuckOpenFault,
)


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
    """Diagnostics of one fault extraction (GLRFM or the generator).

    :func:`failure_sites` fills the enumeration counters; the consumer
    fills ``candidates`` and ``skipped_below_threshold``.
    """

    #: Different-net piece pairs on layers with a short density.
    bridge_pairs: int = 0
    #: Of those, pairs between two supply nets (never enumerated).
    skipped_supply: int = 0
    #: Of those, pairs farther apart than the largest defect.
    skipped_spacing: int = 0
    #: Enumerated pairs with spacing > 0 and no facing run.
    irregular_pairs: int = 0
    #: Pieces on layers with an open density.
    open_sites: int = 0
    #: Contacts/vias with an open density.
    cut_sites: int = 0
    #: Open/cut sites whose removal has no electrical effect.
    ineffective_opens: int = 0
    #: Faults handed to the merging (GLRFM) or collapsing (generator) stage.
    candidates: int = 0
    #: Faults dropped below ``min_probability``/``min_weight``.
    skipped_below_threshold: int = 0
    messages: list[str] = field(default_factory=list)


@dataclass
class FailureSite:
    """One geometric failure opportunity of a layout (see
    :func:`failure_sites`)."""

    #: Layer name (bridges, wire opens) or cut mechanism (``"via"``,
    #: ``"contact_diff"``, ``"contact_poly"``).
    layer: str
    #: Defect density of ``layer`` for this failure kind [defects/cm^2].
    density: float
    #: Analytic size-weighted critical area [um^2].
    area: float
    #: Fault template (``fault_id`` and ``probability`` left at 0): a
    #: :class:`~repro.lift.faults.BridgingFault`, :func:`open_effect`'s
    #: template, or ``None`` for an open with no electrical effect.
    fault: Fault | None
    #: Provenance, e.g. ``"metal1@(12.0,3.5) spacing=1.0um"``.
    site: str
    #: The two rectangles of an *irregular* bridge pair (spacing > 0 with
    #: no facing run, e.g. diagonal neighbours), where the parallel-wire
    #: expression behind ``area`` does not strictly apply; ``None`` for
    #: every other site.
    irregular_pair: tuple[Rect, Rect] | None = None

    @property
    def probability(self) -> float:
        """Failure probability of this one site from its analytic area."""
        return failure_probability(self.area, self.density)


def failure_sites(anchor_map: AnchorMap, statistics: DefectStatistics,
                  distribution: DefectSizeDistribution,
                  report: FaultExtractionReport) -> Iterator[FailureSite]:
    """Every geometric failure opportunity of an anchored layout.

    The one enumerator GLRFM (:class:`FaultExtractor`) and the
    defect-driven generator (:class:`repro.anafault.faultgen.FaultGenerator`)
    consume, in one fixed order:

    * bridge pairs per layer, layers sorted, pairs in piece order --
      same-net pairs, supply-to-supply pairs and pairs at least the
      largest defect apart are skipped before any critical-area integral;
    * wire opens, one per piece, in piece order;
    * contact/via opens, one per cut, in connectivity-edge order.

    Open and cut sites with zero failure probability are not yielded.
    Fault templates speak about ``anchor_map.circuit``.  ``report``'s
    enumeration counters are updated as the sites are produced.
    """
    connectivity = anchor_map.extraction.connectivity
    circuit = anchor_map.circuit
    max_size = distribution.max_size

    by_layer: dict[str, list[ConductingPiece]] = {}
    for piece in connectivity.pieces:
        by_layer.setdefault(piece.layer.name, []).append(piece)
    scopes: dict[tuple[str, str], str] = {}
    for layer_name in sorted(by_layer):
        density = statistics.density(layer_name, "short")
        if density <= 0.0:
            continue
        pieces = by_layer[layer_name]
        for i, a in enumerate(pieces):
            net_a = connectivity.piece_net[a.index]
            for b in pieces[i + 1:]:
                net_b = connectivity.piece_net[b.index]
                if net_a == net_b:
                    continue
                report.bridge_pairs += 1
                if net_a in SUPPLY_NETS and net_b in SUPPLY_NETS:
                    report.skipped_supply += 1
                    continue
                spacing, facing = a.rect.facing(b.rect)
                if spacing >= max_size:
                    report.skipped_spacing += 1
                    continue
                irregular: tuple[Rect, Rect] | None = None
                if facing <= 0.0 and spacing != 0.0:
                    report.irregular_pairs += 1
                    irregular = (a.rect, b.rect)
                lo, hi = sorted((net_a, net_b))
                scope = scopes.get((lo, hi))
                if scope is None:
                    scope = _bridge_scope(circuit, lo, hi)
                    scopes[(lo, hi)] = scope
                fault = BridgingFault(
                    0, origin_layer=layer_name,
                    description=f"bridge {lo}-{hi} on {layer_name}",
                    net_a=lo, net_b=hi, scope=scope)
                yield FailureSite(
                    layer_name, density,
                    weighted_bridge_area(distribution, spacing, facing),
                    fault,
                    f"{layer_name}@({a.rect.center[0]:.1f},"
                    f"{a.rect.center[1]:.1f}) spacing={spacing:.1f}um",
                    irregular)

    def open_site(layer: str, density: float, area: float, site: str,
                  seed_piece: int, removed_nodes: Sequence[int] = (),
                  removed_edges: Sequence[tuple[int, int]] = ()
                  ) -> FailureSite | None:
        if failure_probability(area, density) <= 0.0:
            return None
        fault = open_effect(connectivity, anchor_map, circuit, seed_piece,
                            removed_nodes=removed_nodes,
                            removed_edges=removed_edges)
        if fault is None:
            report.ineffective_opens += 1
        else:
            fault.origin_layer = layer
        return FailureSite(layer, density, area, fault, site)

    for piece in connectivity.pieces:
        layer_name = piece.layer.name
        density = statistics.density(layer_name, "open")
        if density <= 0.0:
            continue
        report.open_sites += 1
        rect = piece.rect
        wire = open_site(
            layer_name, density,
            weighted_open_area(distribution, rect.min_dimension,
                               rect.max_dimension),
            f"{layer_name}@({rect.center[0]:.1f},{rect.center[1]:.1f}) cut",
            piece.index, removed_nodes=(piece.index,))
        if wire is not None:
            yield wire

    # Group graph edges by the cut shape that creates them.
    edges_by_cut: dict[int, list[tuple[int, int]]] = {}
    cut_by_id: dict[int, tuple[Shape, str]] = {}
    for u, v, data in connectivity.graph.edges():
        cut = data.get("cut")
        if cut is None:
            continue
        edges_by_cut.setdefault(id(cut), []).append((u, v))
        cut_by_id[id(cut)] = (cut, data.get("cut_layer", CONTACT.name))
    for key, edges in edges_by_cut.items():
        cut_shape, cut_layer_name = cut_by_id[key]
        mechanism = _cut_mechanism(connectivity, cut_shape, cut_layer_name)
        density = statistics.density(mechanism, "open")
        if density <= 0.0:
            continue
        report.cut_sites += 1
        rect = cut_shape.rect
        missing = open_site(
            mechanism, density,
            weighted_contact_area(distribution, rect.min_dimension),
            f"{mechanism}@({rect.center[0]:.1f},{rect.center[1]:.1f}) missing",
            edges[0][0], removed_edges=edges)
        if missing is not None:
            yield missing


def _bridge_scope(circuit: Circuit, net_a: str, net_b: str) -> str:
    """``"local"`` when one device of ``circuit`` touches both nets and
    neither is a supply, ``"global"`` otherwise."""
    if net_a in SUPPLY_NETS or net_b in SUPPLY_NETS:
        return "global"
    for device in circuit.devices:
        if isinstance(device, (Mosfet, Capacitor)):
            if net_a in device.nodes and net_b in device.nodes:
                return "local"
    return "global"


def _cut_mechanism(connectivity: ConnectivityResult, cut_shape: Shape,
                   cut_layer_name: str) -> str:
    """Table 1 failure mechanism of one missing contact/via."""
    if cut_layer_name == VIA.name:
        return "via"
    # Contact: look at what lies underneath.
    for piece in connectivity.pieces:
        if piece.layer in (NDIFF, PDIFF) and piece.rect.touches(cut_shape.rect):
            return "contact_diff"
        if piece.layer == POLY and piece.rect.touches(cut_shape.rect):
            return "contact_poly"
    return "contact_diff"


class FaultExtractor:
    """GLRFM fault extraction from an extracted layout.

    Faults whose probability of occurrence falls below ``min_probability``
    are not reported.
    """

    def __init__(self, layout: Layout, extraction: ExtractionResult,
                 schematic: Circuit, lvs: LVSReport | None = None,
                 statistics: DefectStatistics | None = None,
                 distribution: DefectSizeDistribution | None = None, *,
                 min_probability: float = 1e-9) -> None:
        self.layout = layout
        self.extraction = extraction
        self.schematic = schematic
        self.lvs = lvs or compare(extraction.circuit, schematic)
        self.statistics = statistics or DefectStatistics.table_1()
        self.distribution = distribution or DefectSizeDistribution()
        self.min_probability = min_probability
        self.report = FaultExtractionReport()

    # ------------------------------------------------------------------
    def run(self) -> FaultList:
        anchor_map = AnchorMap(self.layout, self.extraction, self.schematic,
                               device_map=self.lvs.device_map)
        self.report.messages.extend(anchor_map.messages)

        # Bridges: one fault per (net pair, layer), its weighted areas
        # summed before the conversion to a probability.  Opens and cuts:
        # one fault per effective site.
        bridges: dict[tuple[str, str, str],
                      tuple[BridgingFault, list[FailureSite]]] = {}
        opens: list[Fault] = []
        for site in failure_sites(anchor_map, self.statistics,
                                  self.distribution, self.report):
            fault = site.fault
            if isinstance(fault, BridgingFault):
                if site.area > 0.0:
                    key = (fault.net_a, fault.net_b, site.layer)
                    bridges.setdefault(key, (fault, []))[1].append(site)
            elif fault is not None:
                fault.probability = site.probability
                opens.append(fault)

        candidates: list[Fault] = []
        for key in sorted(bridges):
            fault, sites = bridges[key]
            area = 0.0
            for site in sites:
                area += site.area
            fault.probability = failure_probability(area, sites[0].density)
            fault.origins = [site.site for site in sites[:4]]
            candidates.append(fault)
        candidates.extend(opens)
        # Provisional ids: bridges, then opens, then cuts.
        for fault_id, fault in enumerate(candidates, start=1):
            fault.fault_id = fault_id
        self.report.candidates = len(candidates)

        merged = FaultList("GLRFM candidates")
        merged.extend(candidates)
        merged = merged.merge_equivalent()
        for index, fault in enumerate(
                sorted(merged.faults, key=lambda f: f.fault_id), start=1):
            fault.fault_id = index
        total_candidates = len(merged)

        final = merged.filter_probability(self.min_probability)
        self.report.skipped_below_threshold = total_candidates - len(final)
        final = final.sorted_by_probability()
        final.name = "LIFT realistic faults (GLRFM)"
        final.metadata.update({
            "source": "glrfm",
            "layout": self.layout.name,
            "min_probability": self.min_probability,
            "reference_density": self.statistics.reference_density,
            "candidates": total_candidates,
        })
        return final


def extract_faults(layout: Layout, extraction: ExtractionResult,
                   schematic: Circuit, **kwargs: Any) -> FaultList:
    """Convenience wrapper: run GLRFM with default settings."""
    return FaultExtractor(layout, extraction, schematic, **kwargs).run()
