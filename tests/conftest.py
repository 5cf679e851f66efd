"""Shared fixtures.

Expensive artefacts (the VCO layout, its extraction and short transient
simulations) are built once per session and reused by many tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro.anafault import CampaignSettings, ToleranceSettings
from repro.circuits import (
    build_rc_lowpass,
    build_cmos_inverter,
    build_vco,
    build_vco_layout,
)
from repro.extract import compare, extract_netlist
from repro.lift import FaultExtractor
from repro.spice import SimulationOptions, TransientAnalysis

# Simulation-backed property tests can exceed hypothesis' default per-example
# deadline on slow machines; correctness is what matters here.
hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")


@pytest.fixture(scope="session")
def vco_circuit():
    """The 26-transistor VCO schematic."""
    return build_vco()


@pytest.fixture(scope="session")
def vco_layout_pair():
    """(circuit, layout) of the VCO with the generated layout."""
    return build_vco_layout()


@pytest.fixture(scope="session")
def vco_layout(vco_layout_pair):
    return vco_layout_pair[1]


@pytest.fixture(scope="session")
def vco_extraction(vco_layout_pair):
    """Extraction result of the VCO layout."""
    _, layout = vco_layout_pair
    return extract_netlist(layout)


@pytest.fixture(scope="session")
def vco_lvs(vco_layout_pair, vco_extraction):
    circuit, _ = vco_layout_pair
    return compare(vco_extraction.circuit, circuit)


@pytest.fixture(scope="session")
def vco_fault_list(vco_layout_pair, vco_extraction, vco_lvs):
    """The GLRFM fault list of the VCO (all faults above 1e-9)."""
    circuit, layout = vco_layout_pair
    return FaultExtractor(layout, vco_extraction, circuit, vco_lvs,
                          min_probability=1e-9).run()


@pytest.fixture(scope="session")
def vco_short_transient(vco_circuit):
    """A shortened (3 us / 300 point) nominal transient of the VCO.

    Long enough for the relaxation oscillator to start up (the first charge
    ramp takes about 1.1 us) and produce a few output periods; much cheaper
    than the paper's full 4 us / 400 step run used by the benchmarks.
    """
    return TransientAnalysis(vco_circuit, tstop=3e-6, tstep=1e-8,
                             use_ic=True).run()


@pytest.fixture()
def rc_circuit():
    # 1 kOhm / 1 uF -> 1 ms time constant, comfortably resolved by the
    # millisecond-scale campaign settings used in the AnaFAULT tests.
    return build_rc_lowpass(capacitance=1e-6)


@pytest.fixture()
def inverter_circuit():
    return build_cmos_inverter(input_voltage=0.0)


@pytest.fixture()
def fast_campaign_settings():
    """Campaign settings with a shortened transient for quick fault
    simulations (still long enough for the VCO to start oscillating)."""
    return CampaignSettings(tstop=3e-6, tstep=1.5e-8,
                            observation_nodes=("11",),
                            tolerances=ToleranceSettings(2.0, 0.2e-6),
                            simulator_options=SimulationOptions())
