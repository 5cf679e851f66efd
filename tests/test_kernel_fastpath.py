"""Regression tests for the fast-path MNA kernel and the print-grid fixes.

Covers the PR that introduced per-device stamp splitting (constant vs
iteration), the vectorized companion-capacitor bank, the linear-circuit LU
bypass, the clamped transient print grid and the batched campaign layer.
"""

import numpy as np
import pytest

from repro.anafault import (CampaignSettings, FaultSimulator, PoolExecutor,
                            SerialExecutor, ToleranceSettings)
from repro.anafault.executors import campaign_chunksize
from repro.anafault.simulator import FaultSimulationRecord
from repro.circuits import build_rc_lowpass, build_vco
from repro.errors import AnalysisError, CampaignError
from repro.lift import BridgingFault, FaultList, OpenFault
from repro.spice import TransientAnalysis
from repro.spice.analysis.mna import MNABuilder
from repro.spice.devices.base import Device
from mosfet_oracle import build as oracle_build


class _NullNonlinear(Device):
    """A do-nothing device flagged nonlinear: forces the Newton path."""

    PREFIX = "N"
    NUM_TERMINALS = 2

    def is_nonlinear(self) -> bool:
        return True

    def stamp(self, system, state) -> None:
        pass


class TestPrintGrid:
    def test_non_divisible_tstop_reaches_tstop(self):
        circuit = build_rc_lowpass()
        analysis = TransientAnalysis(circuit, tstop=1e-6, tstep=3e-7)
        result = analysis.run()
        # Grid: 0, 0.3, 0.6, 0.9, 1.0 us -- the old rounding produced
        # 0..0.9 us and never simulated up to tstop.
        assert len(result.time) == 5
        assert result.time[-1] == pytest.approx(1e-6, rel=0, abs=0)
        assert np.all(np.diff(result.time) > 0)

    def test_divisible_tstop_grid_unchanged(self):
        circuit = build_rc_lowpass()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=1e-7).run()
        assert len(result.time) == 11
        assert result.time[-1] == pytest.approx(1e-6)

    def test_pathological_sliver_warns(self):
        circuit = build_rc_lowpass()
        analysis = TransientAnalysis(circuit, tstop=1e-6 + 1e-12, tstep=1e-7)
        with pytest.warns(UserWarning, match="pathological"):
            times = analysis.print_grid()
        assert times[-1] == pytest.approx(1e-6 + 1e-12)

    def test_oversized_grid_rejected(self):
        circuit = build_rc_lowpass()
        analysis = TransientAnalysis(circuit, tstop=1.0, tstep=1e-9)
        with pytest.raises(AnalysisError, match="print grid"):
            analysis.print_grid()

    def test_final_value_continues_past_old_grid(self):
        # With tau = RC = 1 us the output keeps charging between 0.9 us and
        # 1.0 us; a truncated grid would miss that final rise.
        circuit = build_rc_lowpass(resistance=1e3, capacitance=1e-9)
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=3e-7).run()
        wave = result["out"]
        assert wave.y[-1] > wave.y[-2]


class TestLinearBypass:
    def test_linear_circuit_takes_bypass(self):
        result = TransientAnalysis(build_rc_lowpass(), tstop=5e-6,
                                   tstep=5e-8).run()
        assert result.stats["linear_bypass"]
        assert result.stats["newton_iterations"] == result.stats["steps_accepted"]

    def test_bypass_matches_newton_waveform(self):
        linear = build_rc_lowpass(resistance=1e3, capacitance=1e-9)
        forced = build_rc_lowpass(resistance=1e3, capacitance=1e-9)
        forced.add(_NullNonlinear("NDUMMY", ["out", "0"]))

        kwargs = dict(tstop=5e-6, tstep=5e-8)
        bypass = TransientAnalysis(linear, **kwargs).run()
        newton = TransientAnalysis(forced, **kwargs).run()

        assert bypass.stats["linear_bypass"]
        assert not newton.stats["linear_bypass"]
        np.testing.assert_allclose(bypass["out"].y, newton["out"].y,
                                   rtol=1e-7, atol=1e-9)

    def test_bypass_matches_analytic_rc_response(self):
        tau = 1e-3  # 1 kOhm * 1 uF
        result = TransientAnalysis(build_rc_lowpass(capacitance=1e-6),
                                   tstop=5e-3, tstep=5e-5).run()
        wave = result["out"]
        expected = 1.0 - np.exp(-wave.x / tau)
        np.testing.assert_allclose(wave.y, expected, atol=2e-2)

    def test_nonlinear_circuit_not_bypassed(self, vco_short_transient):
        stats = vco_short_transient.stats
        assert not stats["linear_bypass"]
        assert stats["newton_iterations"] > stats["steps_accepted"] > 0


class TestFastPathAssembly:
    """The constant/iteration stamp split must reproduce a full reassembly
    device by device over the per-device model (``mosfet_oracle.build``)."""

    @pytest.mark.parametrize("build", [build_vco,
                                       lambda: build_rc_lowpass()])
    def test_split_assembly_matches_the_oracle_build(self, build):
        builder = MNABuilder(build())
        state = builder.new_state("tran")
        rng = np.random.default_rng(42)
        state.x = rng.uniform(-1.0, 5.0, builder.size)
        state.time = 1e-7
        state.dt = 1e-8
        state.integ_c0 = 2.0 / state.dt
        state.integ_c1 = 1.0
        builder.init_state(state)

        # The oracle reads the banks' history without advancing it, so
        # both paths linearise around the same point.
        oracle = oracle_build(builder, state)
        builder.assemble_constant(state)
        fast = builder.build_iteration(state)

        np.testing.assert_allclose(fast.matrix, oracle.matrix, rtol=1e-12)
        np.testing.assert_allclose(fast.rhs, oracle.rhs, rtol=1e-12)

    def test_op_mode_split_assembly_matches(self):
        builder = MNABuilder(build_vco())
        state = builder.new_state("op")
        state.x = np.full(builder.size, 1.0)
        oracle = oracle_build(builder, state)
        builder.assemble_constant(state)
        fast = builder.build_iteration(state)
        np.testing.assert_allclose(fast.matrix, oracle.matrix, rtol=1e-12)
        np.testing.assert_allclose(fast.rhs, oracle.rhs, rtol=1e-12)


class TestCampaignLayer:
    def _fault_list(self):
        faults = FaultList("rc faults")
        faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0",
                                 origin_layer="metal1"))
        faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
        faults.add(BridgingFault(3, probability=1e-9, net_a="in", net_b="out"))
        faults.add(BridgingFault(4, probability=1e-9, net_a="out",
                                 net_b="missing"))
        return faults

    def _settings(self):
        return CampaignSettings(tstop=5e-3, tstep=5e-5, use_ic=True,
                                observation_nodes=("out",),
                                tolerances=ToleranceSettings(0.3, 2e-4))

    def test_serial_and_parallel_records_equivalent(self, rc_circuit):
        serial = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run(executor=SerialExecutor())
        parallel = FaultSimulator(rc_circuit, self._fault_list(),
                                  self._settings()).run(executor=PoolExecutor(2))
        # Same faults in the same order with the same verdicts.
        assert ([r.fault.fault_id for r in serial.records]
                == [r.fault.fault_id for r in parallel.records])
        assert ([r.status for r in serial.records]
                == [r.status for r in parallel.records])
        for a, b in zip(serial.records, parallel.records):
            if a.detection_time is None:
                assert b.detection_time is None
            else:
                assert a.detection_time == pytest.approx(b.detection_time)

    def test_for_worker_simulates_without_fault_list(self, rc_circuit):
        simulator = FaultSimulator.for_worker(rc_circuit, self._settings())
        nominal = simulator.run_nominal()
        record = simulator.simulate_fault(
            BridgingFault(1, net_a="out", net_b="0"), nominal)
        assert record.status == "detected"
        with pytest.raises(CampaignError):
            simulator.run()

    def test_campaign_chunksize(self):
        assert campaign_chunksize(99, 2) == 12
        assert campaign_chunksize(3, 8) == 1
        assert campaign_chunksize(0, 2) == 1

    def test_record_for_uses_index_and_tracks_growth(self, rc_circuit):
        result = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run()
        assert result.record_for(2).fault.fault_id == 2
        # A missing id raises KeyError naming the id (dict-like contract).
        with pytest.raises(KeyError, match="fault id 999"):
            result.record_for(999)
        # Appending a record invalidates the lazy index.
        extra = FaultSimulationRecord(BridgingFault(99, net_a="in",
                                                    net_b="out"), "undetected")
        result.records.append(extra)
        assert result.record_for(99) is extra

    def test_campaign_telemetry_surfaced(self, rc_circuit):
        result = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run()
        simulated = [r for r in result.records if r.status in ("detected",
                                                               "undetected")]
        assert all(r.newton_iterations > 0 for r in simulated)
        telemetry = result.telemetry()
        assert telemetry["faults"] == len(result.records)
        assert telemetry["newton_iterations_total"] > 0
        assert telemetry["fault_seconds_total"] > 0.0
        assert result.nominal_stats["linear_bypass"]
        # The RC circuit has no MOSFET, so no lane kernel ran.
        assert telemetry["device_kernel"] is None
        assert result.nominal_stats["device_kernel"] is None
