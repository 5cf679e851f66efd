"""AC node voltages pinned bit for bit.

The AC analysis linearises every device at the DC operating point and
then solves one complex system per frequency.  Nothing else in the suite
pins its floats, so the node voltages of two circuits are committed as
hex floats in ``tests/data/ac_goldens.json`` and must come out exactly:

* the CMOS inverter biased at mid-supply, driven at its input;
* the nominal VCO, driven at its control input.

Both sweep 1 kHz to 1 GHz at 5 points per decade.  Regenerate the file
only for a change that is meant to move AC results::

    PYTHONPATH=src python tests/test_ac_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.circuits import build_vco
from repro.circuits.library import build_cmos_inverter
from repro.spice import ACAnalysis

GOLDENS = Path(__file__).parent / "data" / "ac_goldens.json"


def driven_inverter():
    circuit = build_cmos_inverter(input_voltage=2.5)
    circuit.device("VIN").ac_magnitude = 1.0
    return circuit


def driven_vco():
    circuit = build_vco()
    circuit.device("VCTRL").ac_magnitude = 1.0
    return circuit


CASES = {"inverter": driven_inverter, "vco": driven_vco}


def ac_node_voltages(case: str) -> dict:
    """Frequencies and every node's complex voltage as hex floats."""
    result = ACAnalysis(CASES[case](), 1e3, 1e9, points=5).run()
    return {
        "frequencies": [f.hex() for f in result.frequencies.tolist()],
        "nodes": {node: [[value.real.hex(), value.imag.hex()]
                         for value in result.complex_waveform(node).tolist()]
                  for node in result.nodes},
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_ac_node_voltages_are_the_committed_bits(case, goldens):
    got = ac_node_voltages(case)
    want = goldens[case]
    assert got["frequencies"] == want["frequencies"]
    assert sorted(got["nodes"]) == sorted(want["nodes"])
    for node, values in want["nodes"].items():
        assert got["nodes"][node] == values, node


def test_the_goldens_are_not_trivial(goldens):
    """Every case has a node that responds at every frequency."""
    for case in CASES:
        nodes = goldens[case]["nodes"].values()
        assert any(all(float.fromhex(re) != 0.0 or float.fromhex(im) != 0.0
                       for re, im in values) for values in nodes), case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ac_golden.py --write")
    GOLDENS.write_text(json.dumps(
        {case: ac_node_voltages(case) for case in sorted(CASES)},
        indent=1, sort_keys=True) + "\n")
