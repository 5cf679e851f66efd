"""Derandomised fuzzers for the three text inputs a campaign reads from disk
or the wire: LIFT fault-list text, checkpoint JSONL lines and the settings
wire dict.

The contract under test is the library's error invariant: every input
either loads or raises a :class:`~repro.errors.ReproError` — never a
``ValueError``, ``KeyError`` or ``OverflowError`` from deep inside a
parser.  Each fuzzer starts from a well-formed input and mutates it, so
most examples stay close enough to valid to reach the field checks.  The
runs are derandomised with a fixed example budget, so the suite is
reproducible and its cost bounded.
"""

from __future__ import annotations

import json
import math
import pathlib
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    settings_from_wire,
    settings_to_wire,
)
from repro.errors import ReproError
from repro.lift import FaultList

from test_streaming import LEGACY_CHECKPOINT, _fault_list, _settings

DATA = pathlib.Path(__file__).parent / "data"

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


@st.composite
def settings_wires(draw):
    if draw(st.booleans()):
        return draw(JSON)
    wire = settings_to_wire(CampaignSettings())
    target = wire
    nested = [name for name, value in wire.items()
              if isinstance(value, dict) and value]
    if draw(st.booleans()):
        target = wire[draw(st.sampled_from(nested))]
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    target[key] = draw(JSON)
    return wire


class TestInputFuzz:
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

