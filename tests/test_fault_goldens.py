"""Golden fault lists of the VCO.

Layout extraction, GLRFM, L2RFM, the schematic fault list and the
defect-driven generator must reproduce the committed fault lists byte for
byte (``FaultList.dumps()``).  Every campaign fingerprint, checkpoint and
benchmark expectation downstream hashes these lists, so a refactor of the
extraction graph or of the critical-area code that moves one probability
digit, one fault id or one chosen terminal fails here first.

The goldens live in ``tests/data``; the defect-driven universe is pinned by
the sha256 of its text.  Regenerate them only for an announced change of
the fault lists.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.anafault import generate_fault_list
from repro.cat import CATFlow
from repro.lift import FaultExtractionOptions, FaultExtractor

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def vco_flow_result(vco_layout_pair):
    circuit, layout = vco_layout_pair
    return CATFlow(circuit, layout).extract_faults()


def _golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, attribute", [
    ("vco_realistic.lift", "realistic_faults"),
    ("vco_l2rfm.lift", "l2rfm_faults"),
    ("vco_schematic.lift", "schematic_faults"),
])
def test_cat_flow_reproduces_the_golden_lists(vco_flow_result, golden,
                                              attribute):
    assert getattr(vco_flow_result, attribute).dumps() == _golden(golden)


def test_glrfm_reproduces_the_golden_list_below_the_coverage_cut(
        vco_layout_pair, vco_extraction, vco_lvs):
    circuit, layout = vco_layout_pair
    faults = FaultExtractor(
        layout, vco_extraction, circuit, vco_lvs,
        options=FaultExtractionOptions(min_probability=1e-9)).run()
    assert faults.dumps() == _golden("vco_glrfm.lift")


def test_faultgen_reproduces_the_golden_universe(vco_layout_pair,
                                                 vco_extraction, vco_lvs):
    circuit, layout = vco_layout_pair
    universe = generate_fault_list(layout, vco_extraction, schematic=circuit,
                                   lvs=vco_lvs)
    digest = hashlib.sha256(universe.dumps().encode("utf-8")).hexdigest()
    assert digest == _golden("vco_faultgen.sha256").strip()
