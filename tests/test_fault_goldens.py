"""Golden fault lists of the VCO, and the layout and circuit behind them.

Layout extraction, GLRFM, L2RFM, the schematic fault list and the
defect-driven generator must reproduce the committed fault lists byte for
byte (``FaultList.dumps()``).  The generated VCO layout (its
``repro.layout.textio`` text) and the circuit extracted from it (its SPICE
text) are pinned too, so a change of the layout generator or of the device
recogniser shows before it reaches a fault list.  Every campaign fingerprint, checkpoint and
benchmark expectation downstream hashes these lists, so a refactor of the
extraction graph or of the critical-area code that moves one probability
digit, one fault id or one chosen terminal fails here first.

The goldens live in ``tests/data``; the layout, the extracted netlist and
the defect-driven universe are pinned by the sha256 of their text.  Regenerate them only for an announced change of
the fault lists.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.anafault import generate_fault_list
from repro.cat import CATFlow
from repro.layout.textio import dumps as layout_text
from repro.lift import FaultExtractor
from repro.spice import write_netlist

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def vco_flow_result(vco_layout_pair):
    circuit, layout = vco_layout_pair
    return CATFlow(circuit, layout).extract_faults()


def _golden(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_layout_generator_reproduces_the_golden_vco_layout(vco_layout):
    assert _sha256(layout_text(vco_layout)) == \
        _golden("vco_layout.sha256").strip()


def test_extraction_reproduces_the_golden_vco_netlist(vco_extraction):
    assert _sha256(write_netlist(vco_extraction.circuit)) == \
        _golden("vco_extracted.sha256").strip()


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
        min_probability=1e-9).run()
    assert faults.dumps() == _golden("vco_glrfm.lift")


def test_faultgen_reproduces_the_golden_universe(vco_layout_pair,
                                                 vco_extraction, vco_lvs):
    circuit, layout = vco_layout_pair
    universe = generate_fault_list(layout, vco_extraction, schematic=circuit,
                                   lvs=vco_lvs)
    assert _sha256(universe.dumps()) == _golden("vco_faultgen.sha256").strip()


# ---------------------------------------------------------------------------
# Full-precision pins
# ---------------------------------------------------------------------------
#
# ``dumps()`` writes ``p=%.6g``, so the text goldens above cannot see float
# drift below six significant digits -- yet ``FaultList.top``,
# ``sorted_by_probability`` and weighted coverage read the full float.  These
# digests hash every field of every fault with ``repr`` (full precision), in
# list order.

def _full_precision_digest(faults) -> str:
    lines = []
    for fault in faults:
        fields = [(f.name, repr(getattr(fault, f.name)))
                  for f in dataclasses.fields(fault)]
        lines.append(repr((fault.kind, repr(fault.effective_weight), fields)))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


FULL_PRECISION_DIGESTS = {
    "glrfm":
        "ab741b1c4413d06b719586e1b9163db16e9659406e4c8447fbdaecc8fdd8e8ed",
    "realistic":
        "078b6c5a978eb47dda81446a213b0749ba62ebba5ae5a36ed4a2e6bf08240d7f",
    "faultgen_collapsed":
        "0ca3ec2fa2fbbaf9a7e91a5ca8976a853d3c935d9670ac69861488973fdc362a",
    "faultgen_uncollapsed":
        "f5e6a109f7eb5eb88a12249c00589e0a0ed4a2b758ea0d452e6e566484b15d97",
}


@pytest.fixture(scope="module")
def full_precision_lists(vco_layout_pair, vco_extraction, vco_lvs,
                         vco_flow_result):
    circuit, layout = vco_layout_pair

    def faultgen(collapse: bool):
        return generate_fault_list(layout, vco_extraction, schematic=circuit,
                                   lvs=vco_lvs, collapse=collapse)

    return {
        "glrfm": FaultExtractor(
            layout, vco_extraction, circuit, vco_lvs,
            min_probability=1e-9).run(),
        "realistic": vco_flow_result.realistic_faults,
        "faultgen_collapsed": faultgen(True),
        "faultgen_uncollapsed": faultgen(False),
    }


@pytest.mark.parametrize("name", sorted(FULL_PRECISION_DIGESTS))
def test_fault_lists_are_pinned_at_full_precision(full_precision_lists,
                                                  name):
    assert (_full_precision_digest(full_precision_lists[name])
            == FULL_PRECISION_DIGESTS[name])
