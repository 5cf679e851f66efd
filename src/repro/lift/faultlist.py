"""Weighted fault lists and the LIFT -> AnaFAULT interface file format."""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from ..errors import FaultError
from .faults import (
    BridgingFault,
    Fault,
    OpenFault,
    ParametricFault,
    SplitNodeFault,
    StuckOpenFault,
)

#: Comment lines :meth:`FaultList.dumps` writes and :meth:`FaultList.loads`
#: reads back (round-trip fidelity keys the campaign fingerprint).
_HEADER_PREFIX = "* LIFT realistic fault list: "
_META_PREFIX = "* meta "
#: Reserved metadata-key prefix carrying per-fault weights: a line
#: ``* meta weight.<fault_id>=<float>`` sets :attr:`Fault.weight` of the
#: matching fault.  Weight lines whose id matches no fault (or whose value
#: is not a finite non-negative float) stay in :attr:`FaultList.metadata`
#: verbatim — the round trip keeps them byte-faithful and
#: ``repro.anafault lint`` flags them (``unknown-meta``) instead of
#: silently dropping them.
WEIGHT_META_PREFIX = "weight."

#: Anything ``open()`` accepts for the dump/load convenience methods.
StrPath = Union[str, "os.PathLike[str]"]


@dataclass
class FaultList:
    """An ordered collection of weighted faults."""

    name: str = "fault list"
    faults: list[Fault] = field(default_factory=list)
    #: Free-form metadata (source layout, statistics used, thresholds ...).
    metadata: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __getitem__(self, index: int) -> Fault:
        return self.faults[index]

    def add(self, fault: Fault) -> None:
        self.faults.append(fault)

    def extend(self, faults: Iterable[Fault]) -> None:
        self.faults.extend(faults)

    def by_id(self, fault_id: int) -> Fault:
        for fault in self.faults:
            if fault.fault_id == fault_id:
                return fault
        raise FaultError(f"no fault with id {fault_id}")

    def by_kind(self, kind: str) -> list[Fault]:
        return [f for f in self.faults if f.kind == kind]

    # ------------------------------------------------------------------
    # Programmatic construction
    # ------------------------------------------------------------------
    @classmethod
    def from_faults(cls, faults: Iterable[Fault], name: str = "fault list",
                    metadata: dict[str, object] | None = None,
                    renumber: bool = False) -> "FaultList":
        """Build a list from fault objects with id hygiene up front.

        The campaign engine keys checkpoints, shard merges and verdict
        maps by fault id, so duplicate ids corrupt bookkeeping silently.
        This builder refuses them at construction time
        (:class:`~repro.errors.FaultError`) — or reassigns sequential ids
        ``1..n`` in input order when ``renumber`` is set (generated fault
        universes use this after collapsing).  The fault objects are
        taken as-is, not copied.
        """
        fault_list = cls(name, list(faults),
                         dict(metadata) if metadata else {})
        if renumber:
            for index, fault in enumerate(fault_list.faults, start=1):
                fault.fault_id = index
            return fault_list
        seen: dict[int, Fault] = {}
        for fault in fault_list.faults:
            previous = seen.setdefault(fault.fault_id, fault)
            if previous is not fault:
                raise FaultError(
                    f"duplicate fault id {fault.fault_id} "
                    f"({previous.kind} vs {fault.kind}); pass "
                    "renumber=True or assign unique ids")
        return fault_list

    # ------------------------------------------------------------------
    # Ranking and reduction
    # ------------------------------------------------------------------
    def sorted_by_probability(self) -> "FaultList":
        ranked = sorted(self.faults, key=lambda f: f.probability, reverse=True)
        return FaultList(self.name, ranked, dict(self.metadata))

    def top(self, count: int) -> "FaultList":
        """The ``count`` most probable faults; a negative count (which a
        slice would read as "all but the last") raises
        :class:`~repro.errors.FaultError`."""
        if count < 0:
            raise FaultError(f"top needs a fault count >= 0, got {count}")
        return FaultList(f"{self.name} (top {count})",
                         self.sorted_by_probability().faults[:count],
                         dict(self.metadata))

    def filter_probability(self, minimum: float) -> "FaultList":
        kept = [f for f in self.faults if f.probability >= minimum]
        return FaultList(self.name, kept, dict(self.metadata))

    def merge_equivalent(self) -> "FaultList":
        """Merge faults with identical electrical signatures, summing their
        probabilities (keeps the lowest fault id and all origins).

        The input faults are left untouched; merged entries are copies.
        """
        import copy as _copy

        merged: dict[tuple, Fault] = {}
        for fault in self.faults:
            key = fault.signature()
            if key in merged:
                existing = merged[key]
                existing.probability += fault.probability
                if existing.weight is not None or fault.weight is not None:
                    # Explicit weights aggregate like probabilities; a
                    # one-sided weight treats the unweighted side as 0 so
                    # the merge never invents weight from probability.
                    existing.weight = ((existing.weight or 0.0)
                                       + (fault.weight or 0.0))
                existing.origins.extend(fault.origins)
                existing.fault_id = min(existing.fault_id, fault.fault_id)
            else:
                merged[key] = _copy.deepcopy(fault)
        return FaultList(self.name, list(merged.values()), dict(self.metadata))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_probability(self) -> float:
        return sum(f.probability for f in self.faults)

    def total_weight(self) -> float:
        """Sum of the per-fault :attr:`Fault.effective_weight` — the
        normalising constant of weighted coverage and of the
        importance sampler (:mod:`repro.anafault.faultgen`)."""
        return sum(f.effective_weight for f in self.faults)

    def count_by_kind(self) -> Counter:
        return Counter(f.kind for f in self.faults)

    def count_by_category(self) -> Counter:
        return Counter(f.category for f in self.faults)

    def summary(self) -> str:
        counts = self.count_by_kind()
        parts = [f"{self.name}: {len(self)} faults"]
        for kind in ("bridge", "open", "split", "stuck_open", "parametric"):
            if counts.get(kind):
                parts.append(f"{counts[kind]} {kind}")
        parts.append(f"total p={self.total_probability():.3g}")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # Serialisation (the LIFT -> AnaFAULT interface file)
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        lines = [f"{_HEADER_PREFIX}{self.name}"]
        entries: dict[str, object] = dict(self.metadata)
        for fault in self.faults:
            if fault.weight is not None:
                # repr(float) round-trips exactly, so
                # loads(dumps()).dumps() stays byte-identical (the
                # fidelity the campaign fingerprint relies on).
                entries[f"{WEIGHT_META_PREFIX}{fault.fault_id}"] = repr(
                    float(fault.weight))
        for key, value in sorted(entries.items()):
            lines.append(f"{_META_PREFIX}{key}={value}")
        for fault in self.faults:
            lines.append(_fault_to_record(fault))
        return "\n".join(lines) + "\n"

    def dump(self, path: StrPath) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str, name: str | None = None) -> "FaultList":
        """Parse the LIFT interchange text back into a fault list.

        The header comment and ``* meta`` lines :meth:`dumps` writes are
        read back, so ``loads(x.dumps()).dumps() == x.dumps()`` — the
        round trip is byte-faithful, which the campaign service relies on
        (the campaign fingerprint hashes the serialised list, and both
        ends of the wire must derive the same identity from the same
        text).  An explicit ``name`` still wins over the embedded one
        (the CLI pins it for content-only checkpoint identity).

        ``* meta weight.<fault_id>=<float>`` lines set
        :attr:`Fault.weight` on the matching faults; weight lines that
        bind to no fault (unknown id, a value that is not a finite
        non-negative float) are *kept* in :attr:`metadata` — the round
        trip re-emits them unchanged and the ``unknown-meta`` lint rule
        reports them.  A fault record whose ``p=`` is not a finite
        non-negative number raises :class:`~repro.errors.FaultError`
        naming the line.
        """
        fault_list = cls(name if name is not None else "fault list")
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("*"):
                if name is None and line.startswith(_HEADER_PREFIX):
                    fault_list.name = line[len(_HEADER_PREFIX):].strip()
                elif line.startswith(_META_PREFIX):
                    key, separator, value = (
                        line[len(_META_PREFIX):].partition("="))
                    if separator:
                        fault_list.metadata[key.strip()] = value
                continue
            try:
                fault_list.add(_fault_from_record(line))
            except Exception as exc:
                raise FaultError(
                    f"bad fault record on line {line_number}: {raw!r} ({exc})"
                    ) from exc
        fault_list._bind_weight_metadata()
        return fault_list

    def _bind_weight_metadata(self) -> None:
        """Move ``weight.<id>`` metadata entries onto the matching faults.

        Entries that fail to bind stay in :attr:`metadata` so
        :meth:`dumps` reproduces them byte-for-byte and the lint rule can
        point at them.
        """
        by_id: dict[int, list[Fault]] = {}
        for fault in self.faults:
            by_id.setdefault(fault.fault_id, []).append(fault)
        for key in [k for k in self.metadata
                    if k.startswith(WEIGHT_META_PREFIX)]:
            suffix = key[len(WEIGHT_META_PREFIX):]
            try:
                fault_id = int(suffix)
                weight = float(str(self.metadata[key]))
            except ValueError:
                continue  # malformed; kept for the round trip + lint
            if not (math.isfinite(weight) and weight >= 0.0):
                continue  # impossible weight; kept for round trip + lint
            targets = by_id.get(fault_id)
            if not targets:
                continue  # orphan id; kept for the round trip + lint
            for fault in targets:
                fault.weight = weight
            del self.metadata[key]

    @classmethod
    def load(cls, path: StrPath) -> "FaultList":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read(), name=str(path))


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------

def _fault_to_record(fault: Fault) -> str:
    fields = [f"FAULT {fault.fault_id} {fault.kind.upper()}",
              f"p={fault.probability:.6g}"]
    if fault.origin_layer:
        fields.append(f"layer={fault.origin_layer}")
    if isinstance(fault, BridgingFault):
        fields.append(f"nets={fault.net_a},{fault.net_b}")
        fields.append(f"scope={fault.scope}")
    elif isinstance(fault, OpenFault):
        fields.append(f"device={fault.device}")
        fields.append(f"terminal={fault.terminal}")
    elif isinstance(fault, SplitNodeFault):
        fields.append(f"net={fault.net}")
        group = ";".join(f"{d}.{t}" for d, t in fault.group_b)
        fields.append(f"group={group}")
    elif isinstance(fault, StuckOpenFault):
        fields.append(f"device={fault.device}")
        fields.append(f"terminal={fault.terminal}")
    elif isinstance(fault, ParametricFault):
        fields.append(f"device={fault.device}")
        fields.append(f"parameter={fault.parameter}")
        fields.append(f"change={fault.relative_change:g}")
    if fault.description:
        fields.append(f'desc="{fault.description}"')
    return " ".join(fields)


def _parse_fields(tokens: list[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            fields[key] = value.strip('"')
    return fields


def _fault_from_record(line: str) -> Fault:
    # The desc field is quoted and may contain spaces; pull it out before
    # splitting on whitespace (the naive split used to truncate
    # multi-word descriptions to their first word, breaking the
    # byte-faithful round trip for every GLRFM/faultgen list).
    description = ""
    match = re.search(r'\s+desc="([^"]*)"', line)
    if match:
        description = match.group(1)
        line = line[:match.start()] + line[match.end():]
    tokens = line.split()
    if len(tokens) < 3 or tokens[0].upper() != "FAULT":
        raise FaultError(f"not a FAULT record: {line!r}")
    fault_id = int(tokens[1])
    kind = tokens[2].lower()
    fields = _parse_fields(tokens[3:])
    probability = float(fields.get("p", 0.0))
    if not (math.isfinite(probability) and probability >= 0.0):
        raise FaultError(f"p={fields['p']} is not a finite non-negative "
                         "probability")
    layer = fields.get("layer", "")
    description = fields.get("desc", description)

    if kind == "bridge":
        net_a, net_b = fields["nets"].split(",")
        return BridgingFault(fault_id, probability, layer, description,
                             net_a=net_a, net_b=net_b,
                             scope=fields.get("scope", "global"))
    if kind == "open":
        return OpenFault(fault_id, probability, layer, description,
                         device=fields["device"], terminal=fields["terminal"])
    if kind == "split":
        group: list[tuple[str, str]] = []
        for item in fields["group"].split(";"):
            if item:
                device, _, terminal = item.partition(".")
                group.append((device, terminal))
        return SplitNodeFault(fault_id, probability, layer, description,
                              net=fields["net"], group_b=tuple(group))
    if kind == "stuck_open":
        return StuckOpenFault(fault_id, probability, layer, description,
                              device=fields["device"],
                              terminal=fields.get("terminal", "drain"))
    if kind == "parametric":
        return ParametricFault(fault_id, probability, layer, description,
                               device=fields["device"],
                               parameter=fields["parameter"],
                               relative_change=float(fields.get("change", 0.0)))
    raise FaultError(f"unknown fault kind {kind!r}")
