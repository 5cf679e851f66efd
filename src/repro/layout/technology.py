"""Technology description: design rules of the reference CMOS process.

The numbers correspond to a generic 2 um single-poly double-metal CMOS
process of the paper's era (lambda = 1 um scalable rules).  They drive both
the procedural layout generator and the critical-area evaluation (line
widths and spacings directly determine the bridging/open probabilities).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TechnologyError
from .layers import (
    CONTACT,
    METAL1,
    METAL2,
    NDIFF,
    PDIFF,
    POLY,
    VIA,
    Layer,
    layer_by_name,
)

#: Capacitance per um^2 of the poly/metal-1 plate capacitor [F/um^2].  The
#: layout generator sizes the plates with it and the device extractor turns
#: the plate overlap back into a capacitance, so LVS matches.
CAPACITOR_DENSITY = 0.6e-15


@dataclass
class LayerRules:
    """Geometric design rules of one conductor or cut layer (micrometres)."""

    min_width: float
    min_spacing: float
    #: Typical drawn width used by the layout generator for routing.
    routing_width: float = 0.0
    #: Routing pitch (width + spacing) used for track allocation.
    def __post_init__(self):
        if self.routing_width <= 0.0:
            self.routing_width = self.min_width
        if self.min_width <= 0.0 or self.min_spacing <= 0.0:
            raise TechnologyError("layer rules must be positive")

    @property
    def pitch(self) -> float:
        return self.routing_width + self.min_spacing


@dataclass
class Technology:
    """A process technology: per-layer rules plus a few global dimensions."""

    name: str = "cmos2um_1p2m"
    #: Drawn gate length [um].
    gate_length: float = 2.0
    #: Contact/via cut size [um].
    cut_size: float = 2.0
    #: Enclosure of cuts by the surrounding conductor layers [um].
    cut_enclosure: float = 1.0
    #: Extension of poly beyond the channel (end cap) [um].
    poly_endcap: float = 2.0
    #: Extension of diffusion beyond poly (source/drain length) [um].  Chosen
    #: large enough that the metal-2 risers of the source, gate and drain
    #: pads of one transistor never overlap each other and that source/drain
    #: pads can carry two redundant contacts side by side.
    diffusion_extension: float = 9.0
    layer_rules: dict[str, LayerRules] = field(default_factory=dict)

    def __post_init__(self):
        if not self.layer_rules:
            self.layer_rules = {
                NDIFF.name: LayerRules(min_width=3.0, min_spacing=3.0),
                PDIFF.name: LayerRules(min_width=3.0, min_spacing=3.0),
                POLY.name: LayerRules(min_width=2.0, min_spacing=2.0),
                METAL1.name: LayerRules(min_width=3.0, min_spacing=3.0,
                                        routing_width=3.0),
                METAL2.name: LayerRules(min_width=4.0, min_spacing=4.0,
                                        routing_width=4.0),
                CONTACT.name: LayerRules(min_width=2.0, min_spacing=2.0),
                VIA.name: LayerRules(min_width=2.0, min_spacing=3.0),
            }

    # ------------------------------------------------------------------
    def rules(self, layer: Layer | str) -> LayerRules:
        name = layer.name if isinstance(layer, Layer) else layer_by_name(layer).name
        try:
            return self.layer_rules[name]
        except KeyError:
            raise TechnologyError(f"no rules for layer {name!r}") from None

    def min_width(self, layer: Layer | str) -> float:
        return self.rules(layer).min_width

    def min_spacing(self, layer: Layer | str) -> float:
        return self.rules(layer).min_spacing

    def routing_pitch(self, layer: Layer | str) -> float:
        return self.rules(layer).pitch


def default_technology() -> Technology:
    """The reference single-poly double-metal technology used throughout."""
    return Technology()
