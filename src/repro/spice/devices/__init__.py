"""Device library of the SPICE substrate."""

from .base import Device
from .controlled import (
    CurrentControlledCurrentSource,
    CurrentControlledVoltageSource,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
)
from .diode import Diode
from .mosfet import Mosfet
from .passives import Capacitor, Inductor, Resistor
from .sources import (
    CurrentSource,
    DCShape,
    ExpShape,
    PulseShape,
    PWLShape,
    SinShape,
    SourceShape,
    VoltageSource,
)
from .switch import VoltageControlledSwitch

__all__ = [
    "Device",
    "Resistor",
    "Capacitor",
    "Inductor",
    "Diode",
    "Mosfet",
    "VoltageSource",
    "CurrentSource",
    "SourceShape",
    "DCShape",
    "PulseShape",
    "SinShape",
    "PWLShape",
    "ExpShape",
    "VoltageControlledVoltageSource",
    "VoltageControlledCurrentSource",
    "CurrentControlledCurrentSource",
    "CurrentControlledVoltageSource",
    "VoltageControlledSwitch",
]
