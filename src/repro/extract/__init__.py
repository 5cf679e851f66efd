"""Circuit extraction from layout (connectivity, devices, netlist, LVS)."""

from .connectivity import (
    ChannelRegion,
    ConductingPiece,
    ConnectivityExtractor,
    ConnectivityGraph,
    ConnectivityResult,
    ExtractedNet,
)
from .devices import (
    DeviceExtractor,
    ExtractedCapacitor,
    ExtractedMosfet,
)
from .netlist import ExtractionResult, NetlistExtractor, extract_netlist
from .lvs import LVSReport, compare

__all__ = [
    "ChannelRegion",
    "ConductingPiece",
    "ConnectivityExtractor",
    "ConnectivityGraph",
    "ConnectivityResult",
    "ExtractedNet",
    "DeviceExtractor",
    "ExtractedCapacitor",
    "ExtractedMosfet",
    "ExtractionResult",
    "NetlistExtractor",
    "extract_netlist",
    "LVSReport",
    "compare",
]
