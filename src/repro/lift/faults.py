"""Fault taxonomy (Fig. 2 of the paper).

LIFT produces *realistic faults*, each describing the electrical consequence
of one physical defect in schematic terms (net names and device/terminal
names of the simulation netlist), weighted with its probability of
occurrence.  AnaFAULT consumes these records and injects them into the
netlist.

Supported fault classes:

* :class:`BridgingFault` -- a short between two nets ("local short" when the
  nets belong to one element, "global short" otherwise),
* :class:`OpenFault` -- a series open at a single device terminal
  ("local open"),
* :class:`SplitNodeFault` -- an open that splits a net of order *n* into two
  nodes of order *k* and *n - k*,
* :class:`StuckOpenFault` -- an open that isolates the drain/source of a
  transistor (transistor stuck open),
* :class:`ParametricFault` -- a soft deviation of a device parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FaultError, ReproError
from ..spice.netlist import normalize_node

#: Terminal order of a MOSFET in the circuit data model.
MOSFET_TERMINALS = ("drain", "gate", "source", "bulk")
#: Terminal order of two-terminal elements.
TWO_TERMINALS = ("pos", "neg")


def _node(net: str) -> str:
    """``net`` as the circuit knows it: case-folded, ground aliases mapped
    to ``"0"``; a name that is no node name is kept as written."""
    try:
        return normalize_node(net)
    except ReproError:
        return net


def terminal_index(terminal: str, num_terminals: int) -> int:
    """Map a terminal name to its node index for a device."""
    terminal = terminal.lower()
    if num_terminals >= 4:
        names = MOSFET_TERMINALS
    else:
        names = TWO_TERMINALS
    if terminal not in names:
        raise FaultError(f"unknown terminal {terminal!r} for a "
                         f"{num_terminals}-terminal device")
    return names.index(terminal)


@dataclass
class Fault:
    """Base class of all fault records."""

    fault_id: int
    probability: float = 0.0
    origin_layer: str = ""
    description: str = ""
    #: Free-form provenance records (e.g. contributing layout shape pairs).
    origins: list[str] = field(default_factory=list)
    #: Optional first-class defect weight (aggregated failure probability of
    #: the whole equivalence class a generated fault represents, see
    #: :mod:`repro.anafault.faultgen`).  ``None`` means "no explicit weight";
    #: consumers fall back to :attr:`probability` via
    #: :attr:`effective_weight`.  Serialised as a ``* meta weight.<id>=…``
    #: line of the LIFT interchange format, so hand-written lists without
    #: weights round-trip byte-identically.
    weight: float | None = None

    KIND = "fault"

    @property
    def kind(self) -> str:
        return self.KIND

    @property
    def category(self) -> str:
        """Fig. 2 category used in result summaries."""
        return self.KIND

    @property
    def effective_weight(self) -> float:
        """The weight coverage aggregation uses: the explicit
        :attr:`weight` when set, the occurrence :attr:`probability`
        otherwise."""
        return self.probability if self.weight is None else self.weight

    def signature(self) -> tuple:
        """Electrical identity: two faults with the same signature make
        :class:`~repro.anafault.FaultInjector` build the identical faulty
        circuit.  Net names are compared as nodes (``OUT`` is ``out``,
        ``gnd`` is ``0``).  ``FaultList.merge_equivalent``, the
        generator's collapsing stage and the ``equivalent-faults`` lint
        rule all group by it."""
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable identifier (AnaFAULT report rows)."""
        return f"#{self.fault_id} {self.kind}"

    def __str__(self) -> str:
        return f"{self.label()} p={self.probability:.3g}"


@dataclass
class BridgingFault(Fault):
    """A short between two distinct nets."""

    net_a: str = ""
    net_b: str = ""
    scope: str = "global"      # "local" or "global"

    KIND = "bridge"

    def __post_init__(self) -> None:
        if self.net_a == self.net_b:
            raise FaultError("bridging fault needs two distinct nets")
        # Canonical order for merging.
        if self.net_b < self.net_a:
            self.net_a, self.net_b = self.net_b, self.net_a

    @property
    def category(self) -> str:
        return "local short" if self.scope == "local" else "global short"

    def signature(self) -> tuple:
        net_a, net_b = sorted((_node(self.net_a), _node(self.net_b)))
        return ("bridge", net_a, net_b)

    def label(self) -> str:
        return (f"#{self.fault_id} BRI {self.origin_layer or 'net'}_short "
                f"{self.net_a}->{self.net_b}")


@dataclass
class OpenFault(Fault):
    """A series open at one device terminal (local open)."""

    device: str = ""
    terminal: str = ""

    KIND = "open"

    @property
    def category(self) -> str:
        return "local open"

    def signature(self) -> tuple:
        return ("open", self.device.lower(), self.terminal.lower())

    def label(self) -> str:
        return f"#{self.fault_id} OPEN {self.device}.{self.terminal}"


@dataclass
class SplitNodeFault(Fault):
    """An open splitting a net into two groups of terminals.

    ``group_b`` lists the (device, terminal) pairs moved to the new node;
    all remaining connections stay on the original net.
    """

    net: str = ""
    group_b: tuple[tuple[str, str], ...] = ()

    KIND = "split"

    def __post_init__(self) -> None:
        if not self.group_b:
            raise FaultError("split-node fault needs a non-empty group")
        self.group_b = tuple(sorted((d.lower(), t.lower())
                                    for d, t in self.group_b))

    @property
    def category(self) -> str:
        return "split node"

    def signature(self) -> tuple:
        return ("split", _node(self.net), self.group_b)

    def label(self) -> str:
        members = ",".join(f"{d}.{t}" for d, t in self.group_b)
        return f"#{self.fault_id} SPLIT {self.net} |{members}"


@dataclass
class StuckOpenFault(Fault):
    """A transistor whose drain or source is completely disconnected."""

    device: str = ""
    terminal: str = "drain"

    KIND = "stuck_open"

    @property
    def category(self) -> str:
        return "transistor stuck open"

    def signature(self) -> tuple:
        return ("stuck_open", self.device.lower(), self.terminal.lower())

    def label(self) -> str:
        return f"#{self.fault_id} SOP {self.device}.{self.terminal}"


@dataclass
class ParametricFault(Fault):
    """A soft fault: a relative deviation of one device parameter."""

    device: str = ""
    parameter: str = ""
    relative_change: float = 0.0

    KIND = "parametric"

    @property
    def category(self) -> str:
        return "parametric"

    def signature(self) -> tuple:
        return ("parametric", self.device.lower(), self.parameter.lower(),
                round(self.relative_change, 9))

    def label(self) -> str:
        return (f"#{self.fault_id} PAR {self.device}.{self.parameter} "
                f"{self.relative_change:+.0%}")
