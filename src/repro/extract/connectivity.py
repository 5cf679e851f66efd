"""Connectivity (net) extraction from a layout.

The extractor turns drawn geometry into electrical nets:

1. Diffusion shapes are split at poly crossings; the region under the gate
   (the channel) does not conduct, the remaining pieces are source/drain
   islands.
2. Conducting pieces on the same layer that touch are connected.
3. Contact and via cuts connect pieces on the layer pairs they join.
4. Connected components of the resulting graph are the nets; labels give
   them their names.

The graph is a :class:`ConnectivityGraph`: pieces are its nodes, touching
pieces and cuts its edges (a cut edge remembers the contact or via shape
that makes it).  The fault extractors cut pieces and edges out of one net
at a time, so :meth:`ConnectivityResult.net_graph` keeps each net's
subgraph once and :meth:`ConnectivityGraph.connected_components` analyses
a cut by skipping the removed pieces and edges instead of copying the net.

The result keeps a shape-to-net map, which is what the fault extractor needs
to translate geometric defects into electrical faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..errors import ExtractionError
from ..layout.geometry import Rect, subtract_many
from ..layout.layers import (
    CONTACT,
    CUT_CONNECTIVITY,
    DIFFUSION_LAYERS,
    METAL1,
    METAL2,
    POLY,
    VIA,
    Layer,
)
from ..layout.layout import Layout, Shape


@dataclass
class ConductingPiece:
    """A rectangle of conducting material after diffusion splitting."""

    index: int
    layer: Layer
    rect: Rect
    source_shape: Shape
    #: True for diffusion islands created by splitting at a gate.
    from_diffusion_split: bool = False


@dataclass
class ChannelRegion:
    """The intersection of a poly gate with a diffusion island."""

    rect: Rect
    diffusion_layer: Layer
    poly_shape: Shape
    diffusion_shape: Shape


@dataclass
class ExtractedNet:
    """A set of electrically connected conducting pieces."""

    name: str
    pieces: list[ConductingPiece] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    @property
    def layers(self) -> set[str]:
        return {p.layer.name for p in self.pieces}

    def pieces_on(self, layer: Layer) -> list[ConductingPiece]:
        return [p for p in self.pieces if p.layer == layer]

    def total_area(self) -> float:
        return sum(p.rect.area for p in self.pieces)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ExtractedNet({self.name!r}, {len(self.pieces)} pieces)"


class ConnectivityGraph:
    """An undirected graph of conducting pieces, in insertion order.

    Nodes are piece indices.  An edge carries a dict of attributes; the
    extractor marks the edges a contact or via makes with ``cut`` (the cut
    shape) and ``cut_layer``.  Nodes, neighbours and edges iterate in the
    order they were first added, so nets, the edges of each cut and the
    components of a cut net come out in one reproducible order.
    """

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, dict[str, Any]]] = {}

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: int, v: int, **attributes: Any) -> None:
        """Connect ``u`` and ``v`` (adding either as needed).  Adding an
        edge again keeps its place and updates its attributes."""
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v, {})
        data.update(attributes)
        self._adj[u][v] = self._adj[v][u] = data

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int, dict[str, Any]]]:
        """Every edge once, as ``(u, v, attributes)`` with ``u`` the
        endpoint added first."""
        done: set[int] = set()
        for u, neighbours in self._adj.items():
            for v, data in neighbours.items():
                if v not in done:
                    yield u, v, data
            done.add(u)

    def subgraph(self, nodes: Iterable[int]) -> "ConnectivityGraph":
        """An independent copy of the subgraph induced by ``nodes``.

        A subgraph of fewer than half the graph's nodes lists them in the
        iteration order of the set of ``nodes``, a larger one in graph
        order.  Fault lists record the terminals of a split net in the
        order its components are found, so this order is part of the
        output and is kept as the fault lists were first generated.
        """
        keep = {node for node in nodes if node in self._adj}
        if 2 * len(keep) < len(self._adj):
            order: Iterable[int] = keep
        else:
            order = (node for node in self._adj if node in keep)
        sub = ConnectivityGraph()
        for node in order:
            sub.add_node(node)
        for u in list(sub._adj):
            for v, data in self._adj[u].items():
                if v in keep:
                    sub.add_edge(u, v, **data)
        return sub

    def connected_components(self, removed_nodes: Iterable[int] = (),
                             removed_edges: Iterable[tuple[int, int]] = ()
                             ) -> Iterator[set[int]]:
        """The connected components left after cutting ``removed_nodes``
        and ``removed_edges`` out, without changing the graph.

        Components come in the order of their first node; each set is
        filled breadth first from that node, so its own iteration order is
        reproducible too.
        """
        skip = set(removed_nodes)
        cut: set[tuple[int, int]] = set()
        for u, v in removed_edges:
            cut.update(((u, v), (v, u)))
        seen: set[int] = set()
        for source in self._adj:
            if source in skip or source in seen:
                continue
            component = {source}
            level = [source]
            while level:
                next_level = []
                for u in level:
                    for v in self._adj[u]:
                        if (v not in component and v not in skip
                                and (u, v) not in cut):
                            component.add(v)
                            next_level.append(v)
                level = next_level
            seen.update(component)
            yield component


@dataclass
class ConnectivityResult:
    """Output of :class:`ConnectivityExtractor`."""

    nets: list[ExtractedNet]
    channels: list[ChannelRegion]
    pieces: list[ConductingPiece]
    piece_net: dict[int, str]
    graph: ConnectivityGraph
    _net_graphs: dict[str, ConnectivityGraph] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def net_by_name(self, name: str) -> ExtractedNet:
        for net in self.nets:
            if net.name == name:
                return net
        raise ExtractionError(f"no extracted net named {name!r}")

    def net_of_piece(self, piece: ConductingPiece) -> str:
        return self.piece_net[piece.index]

    def net_names(self) -> list[str]:
        return sorted(net.name for net in self.nets)

    def net_graph(self, net: str) -> ConnectivityGraph:
        """The subgraph of the pieces named ``net`` (built once per net)."""
        graph = self._net_graphs.get(net)
        if graph is None:
            graph = self.graph.subgraph(
                piece.index for piece in self.pieces
                if self.piece_net[piece.index] == net)
            self._net_graphs[net] = graph
        return graph


class ConnectivityExtractor:
    """Extract nets from a :class:`~repro.layout.layout.Layout`."""

    def __init__(self, layout: Layout):
        self.layout = layout

    # ------------------------------------------------------------------
    def run(self) -> ConnectivityResult:
        pieces, channels = self._build_pieces()
        graph = self._build_graph(pieces)
        nets, piece_net = self._name_nets(pieces, graph)
        return ConnectivityResult(nets=nets, channels=channels, pieces=pieces,
                                  piece_net=piece_net, graph=graph)

    # ------------------------------------------------------------------
    def _build_pieces(self) -> tuple[list[ConductingPiece], list[ChannelRegion]]:
        pieces: list[ConductingPiece] = []
        channels: list[ChannelRegion] = []
        poly_shapes = self.layout.shapes_on(POLY)
        index = 0

        for shape in self.layout.shapes:
            if shape.layer in DIFFUSION_LAYERS:
                cutters = []
                for poly in poly_shapes:
                    clip = shape.rect.intersection(poly.rect)
                    if clip is not None and not clip.is_empty():
                        cutters.append(clip)
                        channels.append(ChannelRegion(clip, shape.layer, poly,
                                                      shape))
                for piece_rect in subtract_many(shape.rect, cutters):
                    pieces.append(ConductingPiece(index, shape.layer, piece_rect,
                                                  shape, bool(cutters)))
                    index += 1
            elif shape.layer in (POLY, METAL1, METAL2):
                pieces.append(ConductingPiece(index, shape.layer, shape.rect,
                                              shape))
                index += 1
        return pieces, channels

    def _build_graph(self, pieces: list[ConductingPiece]) -> ConnectivityGraph:
        graph = ConnectivityGraph()
        for piece in pieces:
            graph.add_node(piece.index)

        by_layer: dict[str, list[ConductingPiece]] = {}
        for piece in pieces:
            by_layer.setdefault(piece.layer.name, []).append(piece)

        # Same-layer abutment/overlap.
        for layer_pieces in by_layer.values():
            for i, a in enumerate(layer_pieces):
                for b in layer_pieces[i + 1:]:
                    if a.rect.touches(b.rect):
                        graph.add_edge(a.index, b.index)

        # Cut layers connect the layer pairs they join.
        for cut_layer in (CONTACT, VIA):
            for cut in self.layout.shapes_on(cut_layer):
                joined = CUT_CONNECTIVITY[cut_layer]
                touched: list[ConductingPiece] = []
                allowed_layers = {layer.name for pair in joined for layer in pair}
                for piece in pieces:
                    if piece.layer.name not in allowed_layers:
                        continue
                    if piece.rect.touches(cut.rect):
                        touched.append(piece)
                for i, a in enumerate(touched):
                    for b in touched[i + 1:]:
                        pair = {a.layer, b.layer}
                        if any(set(p) == pair for p in joined):
                            graph.add_edge(a.index, b.index,
                                           cut=cut, cut_layer=cut_layer.name)
        return graph

    def _name_nets(self, pieces: list[ConductingPiece],
                   graph: ConnectivityGraph
                   ) -> tuple[list[ExtractedNet], dict[int, str]]:
        piece_by_index = {p.index: p for p in pieces}
        nets: list[ExtractedNet] = []
        piece_net: dict[int, str] = {}
        anonymous = 0

        for component in graph.connected_components():
            members = [piece_by_index[i] for i in sorted(component)]
            labels: list[str] = []
            for label in self.layout.labels:
                for piece in members:
                    if (piece.layer == label.layer
                            and piece.rect.contains_point(label.x, label.y)):
                        labels.append(label.text)
                        break
            if labels:
                name = labels[0]
            else:
                anonymous += 1
                name = f"n${anonymous}"
            net = ExtractedNet(name=name, pieces=members, labels=labels)
            nets.append(net)
            for piece in members:
                piece_net[piece.index] = name
        return nets, piece_net
