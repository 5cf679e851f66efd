"""The record-identity check (``tools/record_identity.py``) on hand-made
snapshots and on the VCO's LIFT cases: no simulation runs, only the
extraction, the digests and the comparison."""

from __future__ import annotations

import importlib.util
import io
import math
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "record_identity.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("record_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(**overrides) -> dict:
    record = {"status": "detected", "detection_time": 1.23e-6,
              "detected_on": "v(11)", "max_deviation": 4.56,
              "persistent_deviation": 2.0000000000000004, "message": "",
              "newton_iterations": 1234, "steps_accepted": 400,
              "steps_rejected": 2, "trace_bytes": 3208, "attempt": 1,
              "order_histogram": {"1": 1, "2": 399}}
    record.update(overrides)
    return record


def _snapshot(tool, records: dict) -> dict:
    return {"cases": {case: tool.case_digest(record)
                      for case, record in records.items()}}


def test_identical_snapshots_report_nothing(tool):
    cases = {"fault/fixed/serial/1": _record(),
             "fault/adaptive/serial/1": _record(status="undetected")}
    out = io.StringIO()
    assert tool.report(_snapshot(tool, cases), _snapshot(tool, cases),
                       out) == 0
    assert tool.compare(_snapshot(tool, cases), _snapshot(tool, cases)) == []
    assert "0 of 2 cases differ" in out.getvalue()


def test_one_ulp_and_a_flipped_status_are_named_with_case_and_field(tool):
    base = {"fault/fixed/serial/1": _record(),
            "fault/adaptive/batched8/7": _record(),
            "fig3/fixed/3.0": {"rows": b"\x00" * 16, "stats": {"a": 1.0}}}
    moved = dict(base)
    deviation = base["fault/fixed/serial/1"]["persistent_deviation"]
    moved["fault/fixed/serial/1"] = _record(
        persistent_deviation=math.nextafter(deviation, math.inf))
    moved["fault/adaptive/batched8/7"] = _record(status="undetected")
    first, second = _snapshot(tool, base), _snapshot(tool, moved)

    assert tool.compare(first, second) == [
        ("fault/adaptive/batched8/7", ["status"]),
        ("fault/fixed/serial/1", ["persistent_deviation"])]
    out = io.StringIO()
    assert tool.report(first, second, out) == 1
    text = out.getvalue()
    assert "DIFF fault/fixed/serial/1: persistent_deviation" in text
    assert "DIFF fault/adaptive/batched8/7: status" in text
    assert "2 of 3 cases differ" in text


def test_a_case_only_one_snapshot_has_is_reported(tool):
    first = _snapshot(tool, {"fault/fixed/serial/1": _record()})
    second = _snapshot(tool, {})
    assert tool.compare(first, second) == [("fault/fixed/serial/1",
                                            ["<missing>"])]


def test_digests_see_type_stable_full_precision_values(tool):
    """A numpy scalar hashes like the float it holds; dict order does not
    matter, the last bit of a float does."""
    np = pytest.importorskip("numpy")
    assert tool.canonical(np.float64(0.1)) == tool.canonical(0.1) == "0.1"
    assert tool.canonical({"2": 1, "1": 2}) == tool.canonical({"1": 2,
                                                               "2": 1})
    assert tool.canonical(0.1) != tool.canonical(math.nextafter(0.1, 1.0))


def test_identity_cases_name_a_fingerprint_drift(tool, rc_circuit):
    """One identity case per campaign mode: a verdict-neutral key leaves
    it alone, another timestep policy moves both of its fields."""
    from repro.anafault import CampaignSettings
    from repro.anafault.wire import settings_from_wire
    from repro.spice import TransientOptions

    from test_streaming import _fault_list

    faults = _fault_list()
    fixed = CampaignSettings()
    base = {"cases": {
        "identity/fixed": tool.identity_case(rc_circuit, faults, fixed)}}
    same = {"cases": {"identity/fixed": tool.identity_case(
        rc_circuit, faults, settings_from_wire({"stream_traces": False}))}}
    moved = {"cases": {"identity/fixed": tool.identity_case(
        rc_circuit, faults,
        CampaignSettings(timestep=TransientOptions(mode="adaptive")))}}
    assert tool.compare(base, same) == []
    assert tool.compare(base, moved) == [
        ("identity/fixed", ["fingerprint", "settings_text"])]


def test_fault_list_cases_see_what_dumps_rounds_away(tool):
    """``dumps()`` prints six digits; the full-precision field still names
    a one-ulp move of a fault probability."""
    from repro.lift import BridgingFault, FaultList

    def faults(probability):
        fault_list = FaultList("lift")
        fault_list.add(BridgingFault(1, probability=probability, net_a="a",
                                     net_b="b"))
        return fault_list

    base = {"cases": {"lift/glrfm": tool.fault_list_case(faults(1e-7))}}
    moved = {"cases": {"lift/glrfm": tool.fault_list_case(
        faults(math.nextafter(1e-7, 1.0)))}}
    assert faults(1e-7).dumps() == faults(math.nextafter(1e-7, 1.0)).dumps()
    assert tool.compare(base, moved) == [("lift/glrfm", ["faults"])]


def test_lift_cases_cover_the_extraction_half(tool, vco_layout_pair):
    """One case per artefact of the layout-to-fault-list half, the same
    on every build."""
    from repro.cat import CATFlow

    circuit, layout = vco_layout_pair

    def cases():
        flow = CATFlow(circuit, layout).extract_faults()
        return tool._lift_cases(flow, lambda message: None)

    first = cases()
    assert sorted(first) == ["lift/faultgen", "lift/glrfm", "lift/l2rfm",
                             "lift/layout", "lift/lvs", "lift/netlist"]
    assert set(first["lift/faultgen"]["fields"]) == {"text", "faults"}
    assert tool.compare({"cases": first}, {"cases": cases()}) == []
