"""Tests for the transient and AC analyses and the waveform container."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import (
    ACAnalysis,
    Capacitor,
    Circuit,
    Inductor,
    Resistor,
    TransientAnalysis,
    VoltageSource,
    Waveform,
)
from repro.spice.devices import SinShape
from repro.spice.waveform import ascii_plot


def _rc(resistance=1e3, capacitance=1e-9):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0", SinShape(0.0, 1.0, 100e3),
                              ac_magnitude=1.0))
    circuit.add(Resistor("R1", "in", "out", resistance))
    circuit.add(Capacitor("C1", "out", "0", capacitance))
    return circuit


class TestTransient:
    def test_sine_amplitude_below_cutoff(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=50e-6, tstep=0.1e-6).run()
        out = result["out"]
        # 100 kHz < f_c = 159 kHz: some attenuation, far from zero.
        steady = out.slice(20e-6, 50e-6)
        expected = 1.0 / math.sqrt(1.0 + (2 * math.pi * 100e3 * 1e3 * 1e-9) ** 2)
        assert steady.maximum() == pytest.approx(expected, rel=0.05)

    def test_output_charges_within_two_periods(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=20e-6, tstep=0.1e-6).run()
        assert result["out"].maximum() > 0.3

    def test_result_signal_aliases(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=0.1e-6).run()
        assert np.allclose(result["out"].y, result["V(out)"].y)
        assert result["v(0)"].maximum() == 0.0

    def test_unknown_signal_raises(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=0.1e-6).run()
        with pytest.raises(AnalysisError):
            result["nonexistent"]

    def test_branch_current_recorded(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=0.1e-6).run()
        assert len(result.current("V1")) == len(result.time)

    def test_invalid_times_rejected(self):
        circuit = _rc()
        with pytest.raises(AnalysisError):
            TransientAnalysis(circuit, tstop=0.0, tstep=1e-9)
        with pytest.raises(AnalysisError):
            TransientAnalysis(circuit, tstop=1e-6, tstep=2e-6)

    def test_use_ic_starts_at_zero(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=0.1e-6,
                                   use_ic=True).run()
        assert result["out"].y[0] == pytest.approx(0.0, abs=1e-9)

    def test_initial_conditions_applied(self):
        circuit = Circuit("ic")
        circuit.add(Resistor("R1", "a", "0", 1e3))
        circuit.add(Capacitor("C1", "a", "0", 1e-9))
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=1e-8, use_ic=True,
                                   initial_conditions={"a": 3.0}).run()
        assert result["a"].y[0] == pytest.approx(3.0, abs=0.05)
        assert result["a"].final_value() < 3.0 * math.exp(-0.9)

    def test_number_of_points(self):
        circuit = _rc()
        result = TransientAnalysis(circuit, tstop=1e-6, tstep=1e-8).run()
        assert len(result.time) == 101

    def test_lc_oscillation_frequency(self):
        circuit = Circuit("lc")
        circuit.add(Capacitor("C1", "a", "0", 1e-9, ic=1.0))
        circuit.add(Inductor("L1", "a", "0", 1e-6))
        circuit.add(Resistor("R1", "a", "0", 100e3))
        result = TransientAnalysis(circuit, tstop=2e-6, tstep=2e-9,
                                   use_ic=True).run()
        measured = result["a"].frequency(level=0.0)
        expected = 1.0 / (2 * math.pi * math.sqrt(1e-6 * 1e-9))
        assert measured == pytest.approx(expected, rel=0.05)


class TestAC:
    def test_rc_lowpass_magnitude(self):
        circuit = _rc()
        result = ACAnalysis(circuit, 1e3, 10e6, points=10).run()
        corner = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        magnitude = result.magnitude("out")
        # Low-frequency gain ~ 1, corner gain ~ -3 dB, high-frequency rolloff.
        assert magnitude.y[0] == pytest.approx(1.0, abs=0.01)
        assert magnitude.value_at(corner) == pytest.approx(1 / math.sqrt(2), rel=0.05)
        assert magnitude.y[-1] < 0.05

    def test_rc_phase(self):
        circuit = _rc()
        result = ACAnalysis(circuit, 1e3, 10e6, points=10).run()
        corner = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        phase = result.phase_deg("out")
        assert phase.value_at(corner) == pytest.approx(-45.0, abs=3.0)

    def test_magnitude_db(self):
        circuit = _rc()
        result = ACAnalysis(circuit, 1e3, 1e6, points=5).run()
        db = result.magnitude_db("out")
        assert db.y[0] == pytest.approx(0.0, abs=0.1)

    def test_linear_sweep(self):
        circuit = _rc()
        result = ACAnalysis(circuit, 1e3, 1e4, points=7, sweep="lin").run()
        assert len(result.frequencies) == 7

    def test_invalid_range_rejected(self):
        with pytest.raises(AnalysisError):
            ACAnalysis(_rc(), 0.0, 1e6)
        with pytest.raises(AnalysisError):
            ACAnalysis(_rc(), 1e6, 1e3)


class TestWaveform:
    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            Waveform([0, 1, 2], [0, 1])

    def test_non_monotonic_rejected(self):
        with pytest.raises(AnalysisError):
            Waveform([0, 2, 1], [0, 1, 2])

    def test_value_interpolation_and_clamping(self):
        wave = Waveform([0, 1, 2], [0, 10, 20])
        assert wave.value_at(0.5) == pytest.approx(5.0)
        assert wave.value_at(-1) == 0.0
        assert wave.value_at(5) == 20.0

    def test_statistics(self):
        wave = Waveform([0, 1, 2, 3], [1, -1, 3, 1])
        assert wave.minimum() == -1
        assert wave.maximum() == 3
        assert wave.peak_to_peak() == 4
        assert wave.mean() == pytest.approx(1.0)
        assert wave.final_value() == 1

    def test_rms_of_sine(self):
        t = np.linspace(0, 1, 1001)
        wave = Waveform(t, np.sin(2 * np.pi * 5 * t))
        assert wave.rms() == pytest.approx(1 / math.sqrt(2), rel=1e-2)

    def test_crossings_and_frequency(self):
        t = np.linspace(0, 1e-3, 2001)
        wave = Waveform(t, np.sin(2 * np.pi * 10e3 * t))
        assert wave.frequency(level=0.0) == pytest.approx(10e3, rel=1e-2)
        rising = wave.crossings(0.0, rising=True)
        falling = wave.crossings(0.0, rising=False)
        assert rising.size == pytest.approx(10, abs=1)
        assert falling.size == pytest.approx(10, abs=1)

    def test_oscillates_detector(self):
        t = np.linspace(0, 1e-3, 2001)
        sine = Waveform(t, 2.5 + 2.5 * np.sin(2 * np.pi * 10e3 * t))
        flat = Waveform(t, np.full_like(t, 2.5))
        assert sine.oscillates()
        assert not flat.oscillates()

    def test_difference_and_max_abs_error(self):
        a = Waveform([0, 1, 2], [0, 1, 2])
        b = Waveform([0, 1, 2], [0, 2, 2])
        assert a.max_abs_error(b) == pytest.approx(1.0)
        assert np.allclose(a.difference(b).y, [0, -1, 0])

    def test_arithmetic(self):
        a = Waveform([0, 1], [1, 2])
        b = Waveform([0, 1], [1, 1])
        assert np.allclose((a + b).y, [2, 3])
        assert np.allclose((a - b).y, [0, 1])
        assert np.allclose((a * 2).y, [2, 4])

    def test_resample_and_slice(self):
        wave = Waveform([0, 1, 2, 3], [0, 1, 2, 3])
        resampled = wave.resample([0.5, 1.5])
        assert np.allclose(resampled.y, [0.5, 1.5])
        window = wave.slice(1, 2)
        assert len(window) == 2

    def test_ascii_plot_contains_markers(self):
        wave = Waveform([0, 1, 2, 3], [0, 1, 0, 1], name="sig")
        art = ascii_plot([wave], width=20, height=5, title="demo")
        assert "demo" in art
        assert "*" in art
        assert "sig" in art

    def test_ascii_plot_empty(self):
        assert ascii_plot([]) == "(no data)"
