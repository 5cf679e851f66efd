"""Wire format of the campaign service (line-delimited JSON).

The scheduler daemon (:mod:`repro.anafault.service`), its workers and its
clients (:mod:`repro.anafault.remote`) speak one tiny protocol: a client
opens a TCP connection to the daemon, writes **one** JSON object terminated
by a newline, reads **one** JSON object terminated by a newline, and closes
the connection.  There is no pipelining and no framing beyond the newline,
so every side of the protocol can be driven with ``nc`` for debugging and
the daemon's request handler is a three-line loop.

This module owns the two serialisation problems the protocol has:

* **campaign identity** — a submitted campaign travels as ``(netlist text,
  LIFT fault-list text, settings dict)``.  The fault-list text is the
  byte-faithful ``FaultList.dumps()`` serialisation, so per-fault defect
  weights (the ``* meta weight.<id>`` lines of generated fault lists) and
  the ``faultgen_*`` provenance metadata cross the wire untouched —
  remote workers compute the same weighted coverage and the same
  fingerprint as a local run.  :func:`settings_to_wire` /
  :func:`settings_from_wire` round-trip a
  :class:`~repro.anafault.simulator.CampaignSettings` (including its nested
  tolerance/fault-model/simulator/timestep dataclasses) through plain JSON
  types **exactly**, so the daemon, every worker and the submitting client
  all derive the same campaign fingerprint from the same wire payload.
  :class:`~repro.anafault.remote.RemoteExecutor` asserts that fingerprint
  equality on submit — wire drift fails loudly instead of mixing results.
* **records** — a finished fault simulation travels as the same per-fault
  payload dict the JSONL checkpoint format persists
  (:data:`repro.anafault.checkpoint.RECORD_FIELDS`), so daemon queue files
  double as campaign checkpoints and ``merge --verify`` applies unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import socket
import types
import typing

from ..errors import CampaignError, ReproError
from .checkpoint import RECORD_FIELDS
from .simulator import CampaignSettings

#: How a wire-type error names the expected JSON type of a field.
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", dict: "a JSON object",
               tuple: "a list of strings"}


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

def settings_to_wire(settings: CampaignSettings) -> dict:
    """``settings`` as a JSON-serialisable dict (field for field).

    Nested dataclasses become dicts, tuples become lists; everything else
    in a :class:`~repro.anafault.simulator.CampaignSettings` is already a
    JSON scalar.  The round trip through :func:`settings_from_wire` is
    exact — Python float ``repr`` survives JSON — so the campaign
    fingerprint computed from the reconstructed settings matches the
    submitter's.
    """
    wire = {}
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        elif isinstance(value, tuple):
            value = list(value)
        wire[field.name] = value
    return wire


def settings_from_wire(wire: dict) -> CampaignSettings:
    """Rebuild a :class:`~repro.anafault.simulator.CampaignSettings` from
    its :func:`settings_to_wire` dict.

    The payload is checked against the field types of the settings
    dataclasses, nested ones included: a payload that is not a JSON
    object, an unknown key (it would silently change what is simulated on
    one side of the wire only) or a value of the wrong type raises
    :class:`~repro.errors.CampaignError` naming the field.  Missing keys
    fall back to the library defaults, so an older client can talk to a
    newer daemon.
    """
    return _from_wire(CampaignSettings, wire, "")


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name]
            for field in dataclasses.fields(cls) if field.init}


def _from_wire(cls: type, wire: object, path: str):
    """An instance of the dataclass ``cls`` from its wire dict; ``path``
    names it in errors (``""`` for the payload itself)."""
    where = f"field {path!r}" if path else "payload"
    if not isinstance(wire, dict):
        raise CampaignError(
            f"settings wire {where} must be a JSON object, got "
            f"{type(wire).__name__}")
    prefix = f"{path}." if path else ""
    types_by_name = _field_types(cls)
    unknown = sorted(set(wire) - set(types_by_name))
    if unknown:
        raise CampaignError(
            f"settings wire {where} carries unknown field(s) "
            f"{[prefix + str(name) for name in unknown]}; both ends of the "
            "service protocol must run the same repro version")
    kwargs = {name: _value_from_wire(types_by_name[name], value,
                                     prefix + name)
              for name, value in wire.items()}
    try:
        return cls(**kwargs)
    except ReproError as exc:
        raise CampaignError(f"settings wire {where}: {exc}") from exc


def _value_from_wire(hint, value: object, path: str) -> object:
    """``value`` as the Python value of a field typed ``hint``: a nested
    settings dataclass, ``X | None``, ``tuple[str, ...]`` (a JSON list) or
    one of the scalar types of :data:`_TYPE_NAMES`."""
    if dataclasses.is_dataclass(hint):
        return _from_wire(hint, value, path)
    if isinstance(hint, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = [option for option in typing.get_args(hint)
                   if option is not type(None)]
    if typing.get_origin(hint) is tuple:
        (item, _) = typing.get_args(hint)
        if isinstance(value, list) and all(_fits(item, entry)
                                           for entry in value):
            return tuple(value)
        hint = tuple
    elif _fits(hint, value):
        return value
    raise CampaignError(
        f"settings wire field {path!r} must be {_TYPE_NAMES[hint]}, got "
        f"{value!r}")


def _fits(hint: type, value: object) -> bool:
    """JSON ``value`` is of the scalar type ``hint`` (a JSON integer is a
    number too, but neither is a boolean)."""
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def record_to_wire(record) -> dict:
    """Per-fault payload dict of one finished
    :class:`~repro.anafault.simulator.FaultSimulationRecord` — exactly the
    fields the JSONL checkpoint format persists per record."""
    return {name: getattr(record, name, None) for name in RECORD_FIELDS}


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the CLI's ``--addr`` format)."""
    host, separator, port = str(text).rpartition(":")
    if not separator or not port.isdigit():
        raise CampaignError(
            f"bad service address {text!r}; expected host:port "
            "(e.g. 127.0.0.1:7901)")
    return (host or "127.0.0.1", int(port))


def request(address: tuple[str, int], payload: dict,
            timeout: float = 30.0) -> dict:
    """One protocol round trip: connect, send ``payload`` as one JSON
    line, read one JSON line back, disconnect.

    Raises :class:`~repro.errors.CampaignError` when the daemon is
    unreachable, closes the connection without answering, or answers with
    an ``{"error": ...}`` object (the daemon's failure convention).
    """
    try:
        with socket.create_connection(address, timeout=timeout) as conn:
            stream = conn.makefile("rwb")
            stream.write(json.dumps(payload).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
    except OSError as exc:
        raise CampaignError(
            f"campaign service at {address[0]}:{address[1]} is unreachable: "
            f"{exc}") from exc
    if not line:
        raise CampaignError(
            f"campaign service at {address[0]}:{address[1]} closed the "
            "connection without answering")
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"campaign service sent a non-JSON response: {line[:120]!r}"
        ) from exc
    if isinstance(response, dict) and "error" in response:
        raise CampaignError(f"campaign service refused "
                            f"{payload.get('op', '?')!r}: {response['error']}")
    if not isinstance(response, dict):
        raise CampaignError(
            f"campaign service sent a non-object response: {response!r}")
    return response
