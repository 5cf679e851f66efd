"""Parser for a SPICE netlist dialect.

The dialect covers what the tool chain needs: the standard element cards
(R, C, L, V, I, D, M, E, G, F, H, S, X), ``.model``, ``.subckt``/``.ends``
with flattening, ``.ic``, ``.options``, ``.param`` (literal substitution),
analysis cards (``.op``, ``.dc``, ``.ac``, ``.tran``) and ``.end``.

The entry point is :func:`parse_netlist`, which returns a
:class:`ParsedNetlist` bundling the flattened :class:`~repro.spice.netlist.Circuit`
with the requested analyses and initial conditions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import NetlistError
from ..units import parse_value
from .netlist import Circuit, Model, normalize_node
from .devices import (
    Capacitor,
    CurrentControlledCurrentSource,
    CurrentControlledVoltageSource,
    CurrentSource,
    DCShape,
    Diode,
    ExpShape,
    Inductor,
    Mosfet,
    PulseShape,
    PWLShape,
    Resistor,
    SinShape,
    VoltageControlledCurrentSource,
    VoltageControlledSwitch,
    VoltageControlledVoltageSource,
    VoltageSource,
)


@dataclass
class AnalysisRequest:
    """A ``.op`` / ``.dc`` / ``.ac`` / ``.tran`` card found in the netlist."""

    kind: str
    args: list[str] = field(default_factory=list)


@dataclass
class ParsedNetlist:
    """Everything extracted from a netlist file."""

    circuit: Circuit
    analyses: list[AnalysisRequest] = field(default_factory=list)
    initial_conditions: dict[str, float] = field(default_factory=dict)
    options: dict[str, float] = field(default_factory=dict)
    parameters: dict[str, float] = field(default_factory=dict)


@dataclass
class _Subcircuit:
    name: str
    ports: list[str]
    lines: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Line-level preprocessing
# ---------------------------------------------------------------------------

def _strip_comment(line: str) -> str:
    for marker in (";", "$ "):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line.rstrip()


def _join_continuations(lines: list[str]) -> list[str]:
    joined: list[str] = []
    for raw in lines:
        line = _strip_comment(raw.rstrip("\n"))
        if not line.strip():
            continue
        if line.lstrip().startswith("*"):
            continue
        if line.lstrip().startswith("+"):
            if not joined:
                raise NetlistError("continuation line with nothing to continue")
            joined[-1] += " " + line.lstrip()[1:].strip()
        else:
            joined.append(line.strip())
    return joined


_TOKEN_RE = re.compile(r"[^\s()=]+\([^()]*\)|[^\s=]+=\S+|[^\s]+")


def _tokenize(line: str) -> list[str]:
    """Split a card into tokens, keeping ``func(...)`` groups and ``k=v``
    assignments together."""
    # Normalise "PULSE ( ... )" to "PULSE(...)" before tokenising.
    compact = re.sub(r"\s*\(\s*", "(", line)
    compact = re.sub(r"\s*\)", ")", compact)
    compact = re.sub(r"\s*=\s*", "=", compact)
    return _TOKEN_RE.findall(compact)


def _split_params(tokens: list[str]) -> tuple[list[str], dict[str, str]]:
    """Split positional tokens from key=value parameters."""
    positional: list[str] = []
    params: dict[str, str] = {}
    for token in tokens:
        if "=" in token and not token.startswith("="):
            key, _, value = token.partition("=")
            params[key.lower()] = value
        else:
            positional.append(token)
    return positional, params


# ---------------------------------------------------------------------------
# Source shape parsing
# ---------------------------------------------------------------------------

_SHAPE_RE = re.compile(r"^(pulse|sin|pwl|exp|dc)\((.*)\)$", re.IGNORECASE)


def _parse_source_tokens(name: str, tokens: list[str]
                         ) -> tuple[object, float, float]:
    """Parse the value part of the V/I card of device ``name``.

    Returns (shape_or_value, ac_magnitude, ac_phase).
    """
    shape = None
    dc_value = None
    ac_magnitude = 0.0
    ac_phase = 0.0
    index = 0
    while index < len(tokens):
        token = tokens[index]
        lower = token.lower()
        match = _SHAPE_RE.match(lower)
        if match:
            kind = match.group(1)
            args = [a for a in re.split(r"[\s,]+", match.group(2).strip()) if a]
            shape = _build_shape(name, kind, args)
            index += 1
            continue
        if lower == "dc":
            index += 1
            if index >= len(tokens):
                raise NetlistError("DC keyword without a value")
            dc_value = parse_value(tokens[index])
            index += 1
            continue
        if lower == "ac":
            index += 1
            if index < len(tokens):
                ac_magnitude = parse_value(tokens[index])
                index += 1
            if index < len(tokens):
                try:
                    ac_phase = parse_value(tokens[index])
                    index += 1
                except Exception:
                    pass
            continue
        if lower in ("pulse", "sin", "pwl", "exp"):
            # Shape keyword with space-separated args until end of card.
            args = tokens[index + 1:]
            shape = _build_shape(name, lower, args)
            index = len(tokens)
            continue
        # Bare number: DC value.
        dc_value = parse_value(token)
        index += 1
    if shape is None:
        shape = DCShape(dc_value if dc_value is not None else 0.0)
    return shape, ac_magnitude, ac_phase


#: Transient shapes taking positional values: class, fewest, most values.
_SHAPE_ARITY = {
    "pulse": (PulseShape, 2, 7),
    "sin": (SinShape, 3, 5),
    "exp": (ExpShape, 2, 6),
}


def _build_shape(name: str, kind: str, args: list[str]):
    values = [parse_value(a) for a in args]
    kind = kind.lower()
    if kind == "dc":
        return DCShape(values[0] if values else 0.0)
    if kind in _SHAPE_ARITY:
        cls, fewest, most = _SHAPE_ARITY[kind]
        if not fewest <= len(values) <= most:
            raise NetlistError(
                f"source {name!r}: {kind.upper()} takes {fewest} to {most} "
                f"values, got {len(values)}")
        return cls(*values)
    if kind == "pwl":
        if len(values) % 2:
            raise NetlistError("PWL needs an even number of values")
        points = list(zip(values[0::2], values[1::2]))
        return PWLShape(points)
    raise NetlistError(f"unknown source shape {kind!r}")


# ---------------------------------------------------------------------------
# Element construction
# ---------------------------------------------------------------------------

def _build_element(tokens: list[str]) -> object:
    name = tokens[0]
    letter = name[0].lower()
    rest = tokens[1:]
    positional, params = _split_params(rest)

    if letter == "r":
        _require(positional, 3, name)
        return Resistor(name, positional[0], positional[1], positional[2])
    if letter == "c":
        _require(positional, 3, name)
        ic = params.get("ic")
        return Capacitor(name, positional[0], positional[1], positional[2], ic=ic)
    if letter == "l":
        _require(positional, 3, name)
        ic = params.get("ic")
        return Inductor(name, positional[0], positional[1], positional[2], ic=ic)
    if letter in ("v", "i"):
        if len(positional) < 2:
            raise NetlistError(f"source {name!r} needs two nodes")
        shape, ac_mag, ac_phase = _parse_source_tokens(name, positional[2:])
        cls = VoltageSource if letter == "v" else CurrentSource
        return cls(name, positional[0], positional[1], shape,
                   ac_magnitude=ac_mag, ac_phase=ac_phase)
    if letter == "d":
        _require(positional, 3, name)
        area = parse_value(positional[3]) if len(positional) > 3 else 1.0
        return Diode(name, positional[0], positional[1], positional[2], area=area)
    if letter == "m":
        if len(positional) < 5:
            raise NetlistError(f"MOSFET {name!r} needs 4 nodes and a model")
        keyword_args = {}
        for key in ("w", "l", "ad", "pd", "ps", "m"):
            if key in params:
                keyword_args[key] = parse_value(params[key])
        if "as" in params:
            keyword_args["as_"] = parse_value(params["as"])
        return Mosfet(name, positional[0], positional[1], positional[2],
                      positional[3], positional[4], **keyword_args)
    if letter == "e":
        _require(positional, 5, name)
        return VoltageControlledVoltageSource(name, *positional[:4],
                                              positional[4])
    if letter == "g":
        _require(positional, 5, name)
        return VoltageControlledCurrentSource(name, *positional[:4],
                                              positional[4])
    if letter == "f":
        _require(positional, 4, name)
        return CurrentControlledCurrentSource(name, positional[0], positional[1],
                                              positional[2], positional[3])
    if letter == "h":
        _require(positional, 4, name)
        return CurrentControlledVoltageSource(name, positional[0], positional[1],
                                              positional[2], positional[3])
    if letter == "s":
        _require(positional, 5, name)
        return VoltageControlledSwitch(name, positional[0], positional[1],
                                       positional[2], positional[3],
                                       positional[4])
    raise NetlistError(f"unsupported element {name!r}")


def _require(positional: list[str], count: int, name: str) -> None:
    if len(positional) < count:
        raise NetlistError(
            f"element {name!r}: expected at least {count} fields, "
            f"got {len(positional)}")


# ---------------------------------------------------------------------------
# Main parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, title: str | None = None):
        self.raw_lines = text.splitlines()
        self.title = title
        self.result: ParsedNetlist | None = None
        self.subcircuits: dict[str, _Subcircuit] = {}

    def parse(self) -> ParsedNetlist:
        lines = list(self.raw_lines)
        title = self.title
        if title is None:
            title = ""
            # SPICE convention: the first non-blank line is the title line.
            # Comment and directive lines are left in place (netlist
            # fragments without a title still parse).
            for position, line in enumerate(lines):
                stripped = line.strip()
                if not stripped:
                    continue
                if not stripped.startswith("*") and not stripped.startswith("."):
                    title = stripped
                    lines = lines[position + 1:]
                break
        cards = _join_continuations(lines)

        circuit = Circuit(title)
        parsed = ParsedNetlist(circuit)
        element_cards: list[list[str]] = []
        instance_cards: list[list[str]] = []

        current_sub: _Subcircuit | None = None
        for card in cards:
            lower = card.lower()
            if current_sub is not None:
                if lower.startswith(".ends"):
                    self.subcircuits[current_sub.name] = current_sub
                    current_sub = None
                else:
                    current_sub.lines.append(card)
                continue
            if lower.startswith(".subckt"):
                tokens = card.split()
                if len(tokens) < 2:
                    raise NetlistError(".subckt needs a name")
                current_sub = _Subcircuit(tokens[1].lower(),
                                          [normalize_node(t) for t in tokens[2:]])
                continue
            if lower.startswith(".model"):
                self._parse_model(card, circuit)
                continue
            if lower.startswith(".param"):
                self._parse_param(card, parsed)
                continue
            if lower.startswith(".options") or lower.startswith(".option"):
                self._parse_options(card, parsed)
                continue
            if lower.startswith(".ic"):
                self._parse_ic(card, parsed)
                continue
            if lower.startswith((".op", ".dc", ".ac", ".tran")):
                tokens = card.split()
                parsed.analyses.append(
                    AnalysisRequest(tokens[0][1:].lower(), tokens[1:]))
                continue
            if lower.startswith(".end"):
                break
            if lower.startswith("."):
                raise NetlistError(f"unsupported directive {card.split()[0]!r}")
            tokens = _tokenize(self._substitute_params(card, parsed))
            if tokens[0][0].lower() == "x":
                instance_cards.append(tokens)
            else:
                element_cards.append(tokens)

        if current_sub is not None:
            raise NetlistError(f"unterminated .subckt {current_sub.name!r}")

        for tokens in element_cards:
            circuit.add(_build_element(tokens))
        for tokens in instance_cards:
            self._expand_instance(tokens, circuit, parsed, prefix="")
        self.result = parsed
        return parsed

    # ------------------------------------------------------------------
    def _substitute_params(self, card: str, parsed: ParsedNetlist) -> str:
        if not parsed.parameters:
            return card
        tokens = card.split()
        substituted = []
        for token in tokens:
            key = token.lower()
            if key.startswith("{") and key.endswith("}"):
                key = key[1:-1]
            if key in parsed.parameters:
                substituted.append(str(parsed.parameters[key]))
            else:
                substituted.append(token)
        return " ".join(substituted)

    def _parse_model(self, card: str, circuit: Circuit) -> None:
        tokens = _tokenize(card)
        if len(tokens) < 3:
            raise NetlistError(f"malformed .model card: {card!r}")
        name = tokens[1]
        kind_token = tokens[2]
        params: dict[str, float] = {}
        kind = kind_token
        # Syntax ".model name type(k=v ...)" or ".model name type k=v ..."
        match = re.match(r"^(\w+)\((.*)\)$", kind_token)
        remaining = tokens[3:]
        if match:
            kind = match.group(1)
            remaining = match.group(2).split() + remaining
        for token in remaining:
            if "=" not in token:
                continue
            key, _, value = token.partition("=")
            params[key.lower()] = parse_value(value)
        circuit.add_model(Model(name, kind, **params))

    def _parse_param(self, card: str, parsed: ParsedNetlist) -> None:
        for token in _tokenize(card)[1:]:
            if "=" not in token:
                raise NetlistError(f".param entries need key=value: {card!r}")
            key, _, value = token.partition("=")
            parsed.parameters[key.lower()] = parse_value(value)

    def _parse_options(self, card: str, parsed: ParsedNetlist) -> None:
        for token in _tokenize(card)[1:]:
            if "=" in token:
                key, _, value = token.partition("=")
                parsed.options[key.lower()] = parse_value(value)
            else:
                parsed.options[token.lower()] = 1.0

    def _parse_ic(self, card: str, parsed: ParsedNetlist) -> None:
        entries = re.findall(r"v\(([^)]+)\)\s*=\s*(\S+)", card, flags=re.IGNORECASE)
        if not entries:
            raise NetlistError(f".ic entries need v(node)=value: {card!r}")
        for node, value in entries:
            parsed.initial_conditions[normalize_node(node)] = parse_value(value)

    # ------------------------------------------------------------------
    def _expand_instance(self, tokens: list[str], circuit: Circuit,
                         parsed: ParsedNetlist, prefix: str,
                         depth: int = 0) -> None:
        if depth > 20:
            raise NetlistError("subcircuit nesting too deep (recursion?)")
        positional, _params = _split_params(tokens[1:])
        if len(positional) < 1:
            raise NetlistError(f"malformed subcircuit instance: {tokens!r}")
        instance_name = prefix + tokens[0]
        sub_name = positional[-1].lower()
        connection_nodes = [normalize_node(n) for n in positional[:-1]]
        if sub_name not in self.subcircuits:
            raise NetlistError(f"unknown subcircuit {sub_name!r}")
        sub = self.subcircuits[sub_name]
        if len(connection_nodes) != len(sub.ports):
            raise NetlistError(
                f"instance {instance_name!r}: {len(connection_nodes)} nodes "
                f"given, subcircuit {sub_name!r} has {len(sub.ports)} ports")
        port_map = dict(zip(sub.ports, connection_nodes))

        def map_node(node: str) -> str:
            node = normalize_node(node)
            if node in port_map:
                return port_map[node]
            if node == "0":
                return node
            return f"{instance_name.lower()}.{node}"

        for card in sub.lines:
            card_tokens = _tokenize(self._substitute_params(card, parsed))
            letter = card_tokens[0][0].lower()
            # Flattened device names keep their element letter in front so
            # the name still identifies the device type: "R1" inside "X1"
            # becomes "R1.X1".
            if letter == "x":
                renamed = [f"{card_tokens[0]}.{instance_name}"]
                positional_inner, params_inner = _split_params(card_tokens[1:])
                mapped = [map_node(n) for n in positional_inner[:-1]]
                renamed.extend(mapped)
                renamed.append(positional_inner[-1])
                renamed.extend(f"{k}={v}" for k, v in params_inner.items())
                self._expand_instance(renamed, circuit, parsed,
                                      prefix="", depth=depth + 1)
                continue
            node_counts = {"r": 2, "c": 2, "l": 2, "v": 2, "i": 2, "d": 2,
                           "m": 4, "e": 4, "g": 4, "f": 2, "h": 2, "s": 4}
            if letter not in node_counts:
                raise NetlistError(
                    f"unsupported element inside subcircuit: {card!r}")
            count = node_counts[letter]
            new_tokens = [f"{card_tokens[0]}.{instance_name}"]
            positional_inner, params_inner = _split_params(card_tokens[1:])
            for position, token in enumerate(positional_inner):
                if position < count:
                    new_tokens.append(map_node(token))
                else:
                    new_tokens.append(token)
            new_tokens.extend(f"{k}={v}" for k, v in params_inner.items())
            circuit.add(_build_element(new_tokens))


def parse_netlist(text: str, title: str | None = None) -> ParsedNetlist:
    """Parse a SPICE netlist string into a :class:`ParsedNetlist`."""
    return _Parser(text, title).parse()


def parse_netlist_file(path) -> ParsedNetlist:
    """Parse a SPICE netlist file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_netlist(handle.read())
