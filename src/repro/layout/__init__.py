"""Layout substrate: Manhattan geometry, layers, technology and generation."""

from .geometry import Rect, bounding_box, group_connected, merged_area, subtract_many
from .layers import (
    ALL_LAYERS,
    CONDUCTOR_LAYERS,
    CONTACT,
    CUT_LAYERS,
    DIFFUSION_LAYERS,
    METAL1,
    METAL2,
    NDIFF,
    NWELL,
    PDIFF,
    POLY,
    VIA,
    Layer,
    layer_by_name,
)
from .layout import Label, Layout, Shape
from .technology import LayerRules, Technology, default_technology
from .builder import (
    LayoutGenerator,
    Pin,
    PlacedTransistor,
    generate_layout,
)
from . import textio

__all__ = [
    "Rect",
    "bounding_box",
    "merged_area",
    "subtract_many",
    "group_connected",
    "Layer",
    "layer_by_name",
    "ALL_LAYERS",
    "CONDUCTOR_LAYERS",
    "CUT_LAYERS",
    "DIFFUSION_LAYERS",
    "NWELL",
    "NDIFF",
    "PDIFF",
    "POLY",
    "CONTACT",
    "METAL1",
    "VIA",
    "METAL2",
    "Label",
    "Layout",
    "Shape",
    "LayerRules",
    "Technology",
    "default_technology",
    "LayoutGenerator",
    "Pin",
    "PlacedTransistor",
    "generate_layout",
    "textio",
]
