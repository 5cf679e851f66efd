"""Derandomised fuzzers for the text inputs a campaign reads from disk or
the wire: SPICE netlists, LIFT fault-list text, checkpoint JSONL lines,
the settings wire dict, every campaign-service request, and the fault
ids the lease machine takes from library callers.

The contract under test is the library's error invariant: every input
either loads or raises a :class:`~repro.errors.ReproError` — never a
``ValueError``, ``KeyError`` or ``OverflowError`` from deep inside a
parser.  For the campaign service the invariant is its protocol's: every
request gets a response dict, so the TCP handler always has a reply to
send.  Each fuzzer starts from a well-formed input and mutates it, so
most examples stay close enough to valid to reach the field checks.  The
runs are derandomised with a fixed example budget, so the suite is
reproducible and its cost bounded.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    settings_from_wire,
    settings_to_wire,
)
from repro.anafault.service import CampaignService, LeaseMachine
from repro.circuits.library import build_rc_lowpass
from repro.errors import CampaignError, ReproError
from repro.lift import FaultList
from repro.spice import parse_netlist

from test_service import _earlier_descriptor, _record_payload, \
    _submit_payload
from test_streaming import LEGACY_CHECKPOINT, _fault_list, _settings

DATA = pathlib.Path(__file__).parent / "data"
NETLISTS = sorted((pathlib.Path(__file__).parent.parent / "examples"
                   / "netlists").glob("*.cir"))

#: Arbitrary JSON values (NaN and infinities included: Python's ``json``
#: reads and writes them).
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=8)

#: Replacement ``key=value`` values: impossible numbers, empties and noise.
VALUE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e999", "0", "", "x",
                     "1,2", ";", "gate"]),
    st.text(max_size=6))

#: Text spliced into a line: LIFT/JSON punctuation, numbers and noise.
SPLICE = st.one_of(
    st.sampled_from(["", "=", ",", ";", '"', "nan", "-1", "FAULT",
                     "* meta weight.1=", "{", "}", "null", "[", ":"]),
    st.text(max_size=6))

#: Words spliced into a netlist card: source shapes (complete, opened or
#: with a wrong value count), keywords, impossible numbers and punctuation.
SPICE_WORD = st.one_of(
    st.sampled_from(["PULSE(", "SIN(0 1)", "EXP(1)", "PWL(0", "PULSE()",
                     "SIN", "DC", "AC", "(", ")", "=", "w=", "1e999",
                     "1e308meg", "nan", "-1", "0", "1meg", "nch", ".model",
                     ".subckt", ".ends", "+", "*"]),
    st.text(max_size=6))

FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _splice(draw, line: str) -> str:
    """``line`` with one span replaced by drawn text."""
    start = draw(st.integers(0, len(line)))
    stop = draw(st.integers(start, min(len(line), start + 8)))
    return line[:start] + draw(SPLICE) + line[stop:]


def _mutate_lift_line(draw, line: str) -> str:
    """``line`` with one ``key=value`` value replaced, or one span spliced."""
    values = list(re.finditer(r"=([^\s\"]*)", line))
    if values and draw(st.booleans()):
        match = draw(st.sampled_from(values))
        return line[:match.start(1)] + draw(VALUE) + line[match.end(1):]
    return _splice(draw, line)


def _mutate_spice_line(draw, line: str) -> str:
    """``line`` with one word replaced, deleted or repeated, or one word
    inserted."""
    words = line.split(" ")
    index = draw(st.integers(0, len(words) - 1))
    action = draw(st.sampled_from(["replace", "delete", "repeat",
                                   "insert"]))
    if action == "replace":
        words[index] = draw(SPICE_WORD)
    elif action == "delete":
        del words[index]
    elif action == "repeat":
        words.insert(index, words[index])
    else:
        words.insert(index, draw(SPICE_WORD))
    return " ".join(words)


@st.composite
def spice_texts(draw) -> str:
    path = draw(st.sampled_from(NETLISTS))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        lines[index] = _mutate_spice_line(draw, lines[index])
    return "\n".join(lines) + "\n"


@st.composite
def lift_texts(draw) -> str:
    lines = (DATA / "vco_realistic.lift").read_text().splitlines()[:12]
    lines.append("* meta weight.40=2.5e-07")
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        lines[index] = _mutate_lift_line(draw, lines[index])
    return "\n".join(lines) + "\n"


@st.composite
def checkpoint_texts(draw) -> str:
    lines = LEGACY_CHECKPOINT.read_text().splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        entry = json.loads(lines[index])
        key = draw(st.sampled_from(sorted(entry)) | st.text(max_size=6))
        entry[key] = draw(JSON)
        lines[index] = json.dumps(entry)
    else:
        lines[index] = _splice(draw, lines[index])
    return "\n".join(lines) + "\n"


#: The settings wire dict of a spool written before seven timestep knobs
#: were retired (every one of its fifteen timestep keys present).
EARLIER_WIRE = _earlier_descriptor()["payload"]["settings"]
RETIRED_KEYS = sorted(set(EARLIER_WIRE["timestep"])
                      - set(settings_to_wire(CampaignSettings())["timestep"]))


@st.composite
def settings_wires(draw):
    if draw(st.booleans()):
        return draw(JSON)
    wire = json.loads(json.dumps(draw(st.sampled_from(
        [settings_to_wire(CampaignSettings()), EARLIER_WIRE]))))
    target = wire
    nested = [name for name, value in wire.items()
              if isinstance(value, dict) and value]
    if draw(st.booleans()):
        target = wire[draw(st.sampled_from(nested))]
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    target[key] = draw(JSON)
    return wire


#: One well-formed request per service op (``shutdown`` is answered by the
#: TCP layer, never by ``CampaignService.handle``) against the submitted
#: rc job, whose fingerprint replaces ``JOB``.
JOB = "<job>"
SUBMIT = {**_submit_payload(build_rc_lowpass(capacitance=1e-6)),
          "lease_ttl": 10.0, "max_attempts": 3, "lease_size": 2}
SERVICE_REQUESTS = {
    "ping": {},
    "submit": SUBMIT,
    "campaign": {"job": JOB},
    "lease": {"worker": "w1"},
    "complete": {"job": JOB, "worker": "w1", "fault_id": 1,
                 "record": _record_payload(1)},
    "fail": {"job": JOB, "worker": "w1", "fault_id": 2, "message": "boom"},
    "release": {"job": JOB, "worker": "w1", "fault_ids": [3, 4]},
    "status": {"job": JOB},
    "results": {"job": JOB},
    "cancel": {"job": JOB},
}

#: Every ``(op, field path)`` the service fuzzer mutates: each top-level
#: field (``op`` included) and each field of the record payload.
SERVICE_FIELDS = [
    (op, path)
    for op, fields in sorted(SERVICE_REQUESTS.items())
    for key, value in {"op": op, **fields}.items()
    for path in [(key,)] + ([(key, inner) for inner in value]
                            if key == "record" else [])]

#: Marks a field the mutation leaves out of the request.
MISSING = object()

#: Replacement field values: wrong types, impossible numbers, or absence.
FIELD_VALUE = st.one_of(
    st.sampled_from([MISSING, None, True, 1.5, -1, 0, 2**70, "x", "", [],
                     [1, "x"], {}, float("nan"), float("inf")]),
    JSON)


def _service_request(op: str, path: tuple, value, job: str) -> dict:
    """The well-formed ``op`` request with the field at ``path`` set to
    ``value`` (or removed)."""
    request = json.loads(json.dumps(
        {"op": op, **SERVICE_REQUESTS[op]}).replace(JOB, job))
    target = request
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return request


def _valid_knob(knob: str, value) -> bool:
    """The lease machine's rule for a ``submit`` knob: a finite
    ``lease_ttl`` above 0, non-bool integers of at least 1 otherwise."""
    if isinstance(value, bool):
        return False
    if knob == "lease_ttl":
        return isinstance(value, (int, float)) and 0.0 < value < math.inf
    return isinstance(value, int) and value >= 1


class TestInputFuzz:
    @FUZZ
    @given(text=spice_texts())
    def test_netlist_text_parses_or_raises_repro_error(self, text):
        try:
            parse_netlist(text)
        except ReproError:
            return

    @FUZZ
    @given(text=lift_texts())
    def test_fault_list_text_loads_or_raises_repro_error(self, text):
        try:
            faults = FaultList.loads(text)
        except ReproError:
            return
        for fault in faults:
            assert math.isfinite(fault.probability) and fault.probability >= 0
            assert fault.weight is None or (math.isfinite(fault.weight)
                                            and fault.weight >= 0)

    @FUZZ
    @given(text=checkpoint_texts())
    def test_checkpoint_resume_loads_or_raises_repro_error(
            self, rc_circuit, tmp_path, text):
        path = tmp_path / "campaign.jsonl"
        path.write_text(text)
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        try:
            plan = simulator.plan(checkpoint=path)
        except ReproError:
            return
        assert len(plan.preloaded) + len(plan.pending) == 5

    @FUZZ
    @given(wire=settings_wires())
    def test_settings_wire_loads_or_raises_repro_error(self, wire):
        try:
            loaded = settings_from_wire(wire)
        except ReproError:
            return
        assert isinstance(loaded, CampaignSettings)

    @FUZZ
    @given(key=st.sampled_from(RETIRED_KEYS), value=JSON)
    def test_retired_wire_key_loads_at_its_frozen_value_or_is_named(
            self, key, value):
        wire = json.loads(json.dumps(EARLIER_WIRE))
        wire["timestep"][key] = value
        try:
            loaded = settings_from_wire(wire)
        except CampaignError as exc:
            assert f"'timestep.{key}' is retired" in str(exc)
            assert value != EARLIER_WIRE["timestep"][key] or \
                type(value) is not type(EARLIER_WIRE["timestep"][key])
            return
        assert value == EARLIER_WIRE["timestep"][key]
        assert loaded == settings_from_wire(EARLIER_WIRE)

    @pytest.mark.parametrize("op, path", SERVICE_FIELDS,
                             ids=["-".join((op,) + path)
                                  for op, path in SERVICE_FIELDS])
    @settings(FUZZ, max_examples=15)
    @given(value=FIELD_VALUE)
    def test_every_service_request_gets_a_response_dict(
            self, tmp_path_factory, op, path, value):
        service = CampaignService(tmp_path_factory.mktemp("spool"))
        try:
            job = service.handle({"op": "submit", **SUBMIT})["job"]
            service.handle({"op": "lease", "worker": "w1"})
            reply = service.handle(_service_request(op, path, value, job))
            assert isinstance(reply, dict)
            json.dumps(reply)  # the TCP handler can send it
        finally:
            service.close()

    @pytest.mark.parametrize("knob", ["lease_ttl", "max_attempts",
                                      "lease_size"])
    @settings(FUZZ, max_examples=30)
    @given(value=FIELD_VALUE)
    def test_submit_knob_is_taken_as_sent_or_refused(
            self, tmp_path_factory, knob, value):
        """An absent knob takes the daemon default, a present one is kept
        exactly or refused with an error naming it."""
        service = CampaignService(tmp_path_factory.mktemp("spool"))
        try:
            reply = service.handle(_service_request("submit", (knob,),
                                                    value, JOB))
            if value is not MISSING and not _valid_knob(knob, value):
                assert knob in reply["error"] and not service.jobs
                return
            want = getattr(service, knob) if value is MISSING else value
            assert getattr(service.jobs[reply["job"]].machine, knob) == want
        finally:
            service.close()

    @pytest.mark.parametrize("method", ["complete", "fail", "release",
                                        "attempt_number"])
    @settings(FUZZ, max_examples=30)
    @given(value=FIELD_VALUE)
    def test_lease_machine_takes_integer_ids_or_refuses(self, method, value):
        """Driven directly, every lease-machine method either acts on an
        integer id or raises a CampaignError naming the id, leaving the
        queue as it was."""
        value = None if value is MISSING else value
        machine = LeaseMachine([1, 2, 3, 4], max_attempts=3, lease_size=2)
        machine.lease("w1", 0.0)
        before = (dict(machine.state), dict(machine.failures))
        calls = {"complete": lambda: machine.complete(value, "w1", 1.0),
                 "fail": lambda: machine.fail(value, "w1", 1.0),
                 "release": lambda: machine.release([value], "w1"),
                 "attempt_number": lambda: machine.attempt_number(value)}
        integer = isinstance(value, int) and not isinstance(value, bool)
        try:
            calls[method]()
        except CampaignError as exc:
            assert (repr(value) in str(exc) if not integer
                    else f"unknown fault id {value}" in str(exc))
            assert (dict(machine.state), dict(machine.failures)) == before
            return
        assert integer
