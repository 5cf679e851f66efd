"""``FaultSimulator.simulate_fault`` as a one-variant lockstep run.

``simulate_fault`` used to run a path of its own: inject, one
``TransientAnalysis.run()``, then ``WaveformComparator.compare_many`` on
the finished waveforms.  It now runs the lockstep path every executor
shares (a one-variant ``BatchedTransient`` whose print rows feed a
``StreamingDetector``), and its records must not change.
:func:`legacy_simulate_fault` keeps the old body as the reference, with
one change: the finished waveforms are judged by the brute-force
:func:`~detection_oracle.oracle_detection` instead of ``compare_many``
(which now drives a ``StreamingDetector`` itself), so an independent
scan still checks the streamed verdict.  Each case compares every record
field except ``elapsed_seconds``.

The cases: the faulty VCO of LIFT faults 18, 55 and 68 (all take Newton
rejects) at the fig. 5 settings, fixed and BDF-adaptive; a fault that
fails to inject; and a fault whose transient fails to converge, with
``count_failed_as_detected`` on and off.
"""

import dataclasses
import time
from dataclasses import replace

import pytest

from repro.anafault import (STATUS_DETECTED, STATUS_INJECTION_FAILED,
                            STATUS_SIM_FAILED, CampaignSettings,
                            FaultSimulationRecord, FaultSimulator,
                            ToleranceSettings, record_from_comparison)
from repro.cat import CATFlow
from repro.circuits import OUTPUT_NODE, build_vco_layout
from repro.circuits.library import build_cmos_inverter
from repro.errors import ConvergenceError, SingularMatrixError
from repro.lift import BridgingFault, ParametricFault
from repro.spice import SimulationOptions, TransientOptions

from detection_oracle import oracle_detection

FIG5_SETTINGS = CampaignSettings(
    tstop=4e-6, tstep=1e-8, use_ic=True, observation_nodes=(OUTPUT_NODE,),
    tolerances=ToleranceSettings(amplitude=2.0, time=0.2e-6))

#: The LTE settings of the adaptive fig. 5 study.
ADAPTIVE = TransientOptions(mode="adaptive", lte_reltol=3e-3, lte_abstol=1e-4,
                            dt_max=8e-8)


def legacy_simulate_fault(simulator, fault, nominal):
    """The per-fault path as it was before the lockstep runner took it
    over, apart from ``self`` becoming ``simulator`` and the oracle
    judging the waveforms."""
    start = time.perf_counter()
    try:
        faulty_circuit = simulator.injector.inject(fault)
    except Exception as exc:
        return FaultSimulationRecord(
            fault, STATUS_INJECTION_FAILED, message=str(exc),
            elapsed_seconds=time.perf_counter() - start)
    try:
        faulty, stats = simulator._run_transient(faulty_circuit)
    except (ConvergenceError, SingularMatrixError) as exc:
        status = (STATUS_DETECTED if simulator.settings.count_failed_as_detected
                  else STATUS_SIM_FAILED)
        detection = 0.0 if status == STATUS_DETECTED else None
        return FaultSimulationRecord(
            fault, status, detection_time=detection, message=str(exc),
            elapsed_seconds=time.perf_counter() - start)
    comparison = oracle_detection(simulator.settings.tolerances, nominal,
                                  faulty)
    return record_from_comparison(fault, comparison, stats,
                                  time.perf_counter() - start)


def record_fields(record) -> dict:
    """Every field of ``record`` except the measured ``elapsed_seconds``."""
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)
            if f.name != "elapsed_seconds"}


def assert_same_record(simulator, fault, nominal):
    record = simulator.simulate_fault(fault, nominal)
    assert record_fields(record) == \
        record_fields(legacy_simulate_fault(simulator, fault, nominal))
    return record


@pytest.fixture(scope="module")
def vco_faults():
    circuit, layout = build_vco_layout()
    faults = CATFlow(circuit, layout).extract_faults().realistic_faults
    return circuit, {fault.fault_id: fault for fault in faults}


@pytest.mark.parametrize("timestep", [TransientOptions(), ADAPTIVE],
                         ids=["fixed", "adaptive"])
def test_vco_faults_match_the_legacy_path(vco_faults, timestep):
    circuit, faults = vco_faults
    simulator = FaultSimulator.for_worker(
        circuit, replace(FIG5_SETTINGS, timestep=timestep))
    nominal = simulator.run_nominal()
    for fault_id in (18, 55, 68):
        record = assert_same_record(simulator, faults[fault_id], nominal)
        assert record.steps_rejected > 0
        assert record.order_histogram


def test_injection_failure_matches_the_legacy_path():
    circuit = build_cmos_inverter()
    settings = CampaignSettings(tstop=1e-7, tstep=1e-9, use_ic=True,
                                observation_nodes=("out",))
    simulator = FaultSimulator.for_worker(circuit, settings)
    nominal = simulator.run_nominal()
    fault = BridgingFault(1, net_a="out", net_b="missing")
    record = assert_same_record(simulator, fault, nominal)
    assert record.status == STATUS_INJECTION_FAILED
    assert record.message


@pytest.mark.parametrize("count_failed", [True, False])
def test_convergence_failure_matches_the_legacy_path(count_failed):
    """``itl4=1``: no Newton solve of the faulty inverter can converge, so
    its transient ends in the ``dt_min`` floor's ``TransientError``."""
    circuit = build_cmos_inverter()
    settings = CampaignSettings(tstop=1e-7, tstep=1e-9, use_ic=True,
                                observation_nodes=("out",),
                                count_failed_as_detected=count_failed)
    nominal = FaultSimulator.for_worker(circuit, settings).run_nominal()
    simulator = FaultSimulator.for_worker(
        circuit, replace(settings,
                         simulator_options=SimulationOptions(itl4=1)))
    fault = ParametricFault(1, device="MN", parameter="w",
                            relative_change=0.5)
    record = assert_same_record(simulator, fault, nominal)
    assert record.status == (STATUS_DETECTED if count_failed
                             else STATUS_SIM_FAILED)
    assert record.detection_time == (0.0 if count_failed else None)
    assert "dt_min" in record.message
