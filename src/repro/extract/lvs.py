"""Layout-versus-schematic (LVS) style comparison.

LIFT reports faults in terms of the *schematic* node and device names so
that AnaFAULT can inject them into the simulation netlist.  The comparison
below maps extracted devices onto schematic devices by matching their
terminal nets (extracted net names come from layout labels, which carry the
schematic node names).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LVSError
from ..spice import Capacitor, Circuit, Mosfet


@dataclass
class LVSReport:
    """Result of comparing an extracted circuit to the schematic."""

    device_map: dict[str, str] = field(default_factory=dict)
    unmatched_extracted: list[str] = field(default_factory=list)
    unmatched_schematic: list[str] = field(default_factory=list)
    net_mismatches: list[str] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not (self.unmatched_extracted or self.unmatched_schematic
                    or self.net_mismatches)

    def summary(self) -> str:
        status = "CLEAN" if self.is_clean else "MISMATCH"
        return (f"LVS {status}: {len(self.device_map)} devices matched, "
                f"{len(self.unmatched_extracted)} extra extracted, "
                f"{len(self.unmatched_schematic)} missing, "
                f"{len(self.net_mismatches)} net mismatches")


def _mosfet_key(device: Mosfet, kind: str) -> tuple:
    drain, gate, source, bulk = device.nodes
    # Drain and source are interchangeable at layout level; the bulk is not.
    return (kind, gate, frozenset((drain, source)), bulk)


def _capacitor_key(device: Capacitor) -> tuple:
    return ("cap", frozenset(device.nodes))


def compare(extracted: Circuit, schematic: Circuit,
            strict: bool = False) -> LVSReport:
    """Map extracted devices onto schematic devices.

    Parameters
    ----------
    extracted, schematic:
        The two circuits to compare.  Only MOSFETs and capacitors are
        matched; sources and other elements in the schematic are ignored
        (they have no layout).
    strict:
        When True, raise :class:`LVSError` if the comparison is not clean.
    """
    report = LVSReport()

    schematic_pool: dict[tuple, list] = {}
    for device in schematic.devices:
        if isinstance(device, Mosfet):
            kind = schematic.model(device.model_name).kind
            schematic_pool.setdefault(_mosfet_key(device, kind), []).append(device)
        elif isinstance(device, Capacitor):
            schematic_pool.setdefault(_capacitor_key(device), []).append(device)

    for device in extracted.devices:
        if isinstance(device, Mosfet):
            kind = extracted.model(device.model_name).kind
            key = _mosfet_key(device, kind)
        elif isinstance(device, Capacitor):
            key = _capacitor_key(device)
        else:
            continue
        candidates = schematic_pool.get(key, [])
        if candidates:
            match = candidates.pop(0)
            report.device_map[device.name] = match.name
        else:
            report.unmatched_extracted.append(device.name)
            report.messages.append(
                f"extracted device {device.name} ({key}) has no schematic match")

    for remaining in schematic_pool.values():
        for device in remaining:
            report.unmatched_schematic.append(device.name)
            report.messages.append(
                f"schematic device {device.name} not found in the layout")

    # Net consistency: every schematic net used by matched devices must
    # appear in the extracted circuit.
    extracted_nets = set(extracted.nodes(include_ground=True))
    schematic_nets = {n for d in schematic.devices
                      if isinstance(d, (Mosfet, Capacitor)) for n in d.nodes}
    for net in sorted(schematic_nets):
        if net not in extracted_nets:
            report.net_mismatches.append(net)
            report.messages.append(f"schematic net {net!r} missing from layout")

    if strict and not report.is_clean:
        raise LVSError(report.summary())
    return report
