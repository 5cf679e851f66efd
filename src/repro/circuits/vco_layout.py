"""Procedurally generated layout of the VCO test chip.

The fabricated VCO of the paper came with a hand-drawn mask layout; this
module substitutes a procedurally generated layout (see
:mod:`repro.layout.builder`) of the same circuit in the same technology
class.  The geometry class -- parallel routing wires at design-rule spacing,
contacted source/drain islands, a large timing capacitor -- is what drives
the realistic fault set, so the substitution preserves the behaviour the
paper evaluates.
"""

from __future__ import annotations

from ..layout import Layout, Technology, generate_layout
from ..spice import Circuit
from .vco import VCOParameters, build_vco


def build_vco_layout(circuit: Circuit | None = None,
                     technology: Technology | None = None,
                     params: VCOParameters | None = None) -> tuple[Circuit, Layout]:
    """Build the VCO schematic and its generated layout.

    Returns ``(circuit, layout)``.  When a ``circuit`` is supplied it is laid
    out as given; otherwise a fresh VCO is built from ``params``.
    """
    if circuit is None:
        circuit = build_vco(params)
    return circuit, generate_layout(circuit, technology)
