"""Circuit data model.

A :class:`Circuit` is an ordered collection of device instances plus a set of
``.model`` cards.  It is the common currency of the whole tool chain: the
schematic entry produces a Circuit, the layout extractor produces a Circuit,
the AnaFAULT fault injector rewrites copies of a Circuit, and the analyses in
:mod:`repro.spice.analysis` consume one.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from typing import Iterable, Iterator, Mapping

from ..errors import ModelError, NetlistError

#: Node names that are treated as the global reference node.
GROUND_ALIASES = frozenset({"0", "gnd", "ground", "vss!", "gnd!"})
#: Canonical ground node name.
GROUND = "0"
#: The supply nets ``(ground, vdd)`` of the LIFT side: the layout
#: generator's bottom and top rails, the extracted NMOS substrate and PMOS
#: n-well bulk nets, and the nets between which LIFT enumerates no bridge
#: (a power-to-ground short is a gross defect caught by current testing,
#: not by signal observation).
SUPPLY_NETS = (GROUND, "1")


def normalize_node(name: str | int) -> str:
    """Return the canonical form of a node name.

    Node names are case-insensitive; all ground aliases map to ``"0"``.
    """
    text = str(name).strip().lower()
    if not text:
        raise NetlistError("empty node name")
    if text in GROUND_ALIASES:
        return GROUND
    return text


class Model:
    """A ``.model`` card: a named bag of device parameters.

    Parameters
    ----------
    name:
        Model name referenced by device instances.
    kind:
        Device family, e.g. ``"nmos"``, ``"pmos"``, ``"d"``, ``"sw"``.
    params:
        Keyword parameters (lower-case keys).
    """

    def __init__(self, name: str, kind: str, **params: float):
        self.name = str(name).lower()
        self.kind = str(kind).lower()
        self.params = {str(k).lower(): v for k, v in params.items()}

    def get(self, key: str, default: float | None = None) -> float | None:
        return self.params.get(key.lower(), default)

    def copy(self) -> "Model":
        return Model(self.name, self.kind, **self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Model({self.name!r}, {self.kind!r}, {self.params})"


class Circuit:
    """A flat circuit: devices, models and node bookkeeping.

    Devices are stored in insertion order under unique (case-insensitive)
    names.  The ground node is always called ``"0"``.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._devices: dict[str, "object"] = {}
        self.models: dict[str, Model] = {}
        #: Free-form metadata (used e.g. by the extractor to attach net areas).
        self.metadata: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------
    def add(self, device) -> "Circuit":
        """Add a device instance; returns ``self`` for chaining."""
        key = device.name.lower()
        if key in self._devices:
            raise NetlistError(f"duplicate device name {device.name!r}")
        self._devices[key] = device
        return self

    def remove(self, name: str) -> None:
        """Remove the device with the given name."""
        key = name.lower()
        if key not in self._devices:
            raise NetlistError(f"no device named {name!r}")
        del self._devices[key]

    def replace(self, device) -> None:
        """Replace an existing device of the same name."""
        key = device.name.lower()
        if key not in self._devices:
            raise NetlistError(f"no device named {device.name!r} to replace")
        self._devices[key] = device

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self) -> Iterator:
        return iter(self._devices.values())

    @property
    def devices(self) -> list:
        """Devices in insertion order."""
        return list(self._devices.values())

    def device(self, name: str):
        """Return the device with the given name."""
        key = name.lower()
        try:
            return self._devices[key]
        except KeyError:
            raise NetlistError(f"no device named {name!r}") from None

    def devices_of_type(self, cls) -> list:
        """Return all devices that are instances of ``cls``."""
        return [d for d in self._devices.values() if isinstance(d, cls)]

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def add_model(self, model: Model) -> "Circuit":
        self.models[model.name] = model
        return self

    def model(self, name: str) -> Model:
        key = str(name).lower()
        try:
            return self.models[key]
        except KeyError:
            raise ModelError(f"no .model card named {name!r}") from None

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def nodes(self, include_ground: bool = False) -> list[str]:
        """Return the sorted list of node names used by the circuit."""
        seen: set[str] = set()
        for device in self._devices.values():
            seen.update(device.nodes)
        if not include_ground:
            seen.discard(GROUND)
        return sorted(seen)

    def node_degree(self) -> dict[str, int]:
        """Return, for every node, the number of device terminals attached."""
        degree: dict[str, int] = defaultdict(int)
        for device in self._devices.values():
            for node in device.nodes:
                degree[node] += 1
        return dict(degree)

    def devices_on_node(self, node: str) -> list:
        """Return devices with at least one terminal on ``node``."""
        node = normalize_node(node)
        return [d for d in self._devices.values() if node in d.nodes]

    def has_node(self, node: str) -> bool:
        node = normalize_node(node)
        if node == GROUND:
            return True
        return any(node in d.nodes for d in self._devices.values())

    # ------------------------------------------------------------------
    # Rewriting primitives (used by the fault injector)
    # ------------------------------------------------------------------
    def rename_node(self, old: str, new: str,
                    only_devices: Iterable[str] | None = None) -> int:
        """Rename node ``old`` to ``new`` on all (or selected) devices.

        Returns the number of terminals rewritten.  Merging two nodes is
        simply a rename of one onto the other; splitting a node is a rename
        restricted to a subset of devices via ``only_devices``.
        """
        old = normalize_node(old)
        new = normalize_node(new)
        restrict = None
        if only_devices is not None:
            restrict = {n.lower() for n in only_devices}
        count = 0
        for key, device in self._devices.items():
            if restrict is not None and key not in restrict:
                continue
            count += device.rename_node(old, new)
        return count

    def fresh_node(self, prefix: str = "n_fault") -> str:
        """Return a node name not yet used in the circuit."""
        existing = set(self.nodes(include_ground=True))
        index = 1
        while True:
            candidate = f"{prefix}{index}"
            if candidate not in existing:
                return candidate
            index += 1

    def fresh_device_name(self, prefix: str) -> str:
        """Return a device name not yet used in the circuit."""
        index = 1
        while True:
            candidate = f"{prefix}{index}"
            if candidate.lower() not in self._devices:
                return candidate
            index += 1

    # ------------------------------------------------------------------
    # Copies and summaries
    # ------------------------------------------------------------------
    def clone(self) -> "Circuit":
        """Return an independent copy of the circuit.

        Devices are copied with :meth:`Device.clone
        <repro.spice.devices.base.Device.clone>` (own terminal lists,
        shared parameter values, fresh analysis state) and model cards
        with :meth:`Model.copy`, so rewiring, resizing or re-modelling the
        copy leaves this circuit untouched.  The metadata is deep-copied.
        """
        twin = Circuit(self.title)
        twin._devices = {key: device.clone()
                         for key, device in self._devices.items()}
        twin.models = {name: model.copy()
                       for name, model in self.models.items()}
        twin.metadata = copy.deepcopy(self.metadata)
        return twin

    def summary(self) -> Mapping[str, int]:
        """Return a per-device-class instance count."""
        counts: dict[str, int] = defaultdict(int)
        for device in self._devices.values():
            counts[type(device).__name__] += 1
        return dict(counts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Circuit({self.title!r}, devices={len(self._devices)}, "
                f"nodes={len(self.nodes())})")
