"""Tests for the LTE-controlled adaptive timestep integrator.

Covers the tentpole invariants of the adaptive engine
(:class:`repro.spice.TransientOptions`): convergence against an analytic
RC solution as the tolerance tightens, reject/grow telemetry, exact
degeneration to the fixed-step driver when pinned, the ``dt_min`` floor
error, the divided-difference history against a from-scratch table and
the formulas it replaced, step quantisation and the bounded
factorisation cache, and the campaign-level fixed-step pinning that
checkpoint resume relies on.
"""

import dataclasses

import numpy as np
import pytest

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    ToleranceSettings,
    campaign_fingerprint,
)
from repro.circuits import build_rc_ladder, build_rc_lowpass, build_vco, \
    nominal_transient_settings
from repro.circuits.models import add_default_models
from repro.errors import AnalysisError, CampaignError, ConvergenceError, \
    TransientError
from repro.lift import BridgingFault, FaultList, OpenFault
from repro.spice import (
    Capacitor,
    Circuit,
    Mosfet,
    Resistor,
    SimulationOptions,
    TransientAnalysis,
    TransientOptions,
    VoltageSource,
)
from repro.spice.analysis.transient import _History, _LRUCache, \
    quantize_step
from repro.spice.devices import PulseShape


def rc_decay_circuit() -> Circuit:
    """1 kOhm || 1 nF with the capacitor charged to 3 V: v = 3 exp(-t/tau),
    tau = 1 us.  No source discontinuities, so the whole run is smooth."""
    circuit = Circuit("rc decay")
    circuit.add(Resistor("R1", "a", "0", 1e3))
    circuit.add(Capacitor("C1", "a", "0", 1e-9, ic=3.0))
    return circuit


def inverter_circuit() -> Circuit:
    """A single pulse-driven CMOS inverter (nonlinear Newton path)."""
    circuit = Circuit("inverter")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", "vdd", "0", 5.0))
    circuit.add(VoltageSource("VIN", "in", "0",
                              PulseShape(0.0, 5.0, 1e-8, 1e-9, 1e-9,
                                         1e-7, 2e-7)))
    circuit.add(Mosfet("MN1", "out", "in", "0", "0", "nch", w=10e-6, l=2e-6))
    circuit.add(Mosfet("MP1", "out", "in", "vdd", "vdd", "pch",
                       w=20e-6, l=2e-6))
    circuit.add(Capacitor("C1", "out", "0", 50e-15))
    return circuit


def adaptive(reltol: float, abstol: float, **kwargs) -> TransientOptions:
    return TransientOptions(mode="adaptive", lte_reltol=reltol,
                            lte_abstol=abstol, **kwargs)


class TestOptionsValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(AnalysisError):
            TransientAnalysis(rc_decay_circuit(), tstop=1e-6, tstep=1e-8,
                              timestep="sometimes")

    def test_bad_knobs_rejected(self):
        for bad in (TransientOptions(lte_reltol=0.0),
                    TransientOptions(lte_abstol=-1.0),
                    TransientOptions(dt_shrink=1.5),
                    TransientOptions(dt_grow=0.5),
                    TransientOptions(safety=0.0),
                    TransientOptions(dt_min=-1e-12),
                    TransientOptions(dt_max=0.0),
                    TransientOptions(dt_initial=0.0),
                    TransientOptions(dt_min=1e-8, dt_max=1e-9),
                    TransientOptions(solver_cache_size=0)):
            with pytest.raises(AnalysisError):
                bad.validate()

    def test_string_shorthand(self):
        analysis = TransientAnalysis(rc_decay_circuit(), tstop=1e-6,
                                     tstep=1e-8, timestep="adaptive")
        assert analysis.timestep.mode == "adaptive"

    def test_default_is_fixed(self):
        analysis = TransientAnalysis(rc_decay_circuit(), tstop=1e-6,
                                     tstep=1e-8)
        assert analysis.timestep.mode == "fixed"


class TestRCAnalyticConvergence:
    """Step-doubling style convergence study on the analytic RC decay."""

    TAU = 1e-6

    def _error(self, options: TransientOptions) -> tuple[float, dict]:
        result = TransientAnalysis(rc_decay_circuit(), tstop=2e-6,
                                   tstep=2e-8, use_ic=True,
                                   timestep=options).run()
        analytic = 3.0 * np.exp(-result.time / self.TAU)
        return float(np.max(np.abs(result["a"].y - analytic))), result.stats

    def test_error_decreases_with_tolerance(self):
        errors = {}
        for reltol in (1e-2, 1e-4, 1e-6):
            errors[reltol], _ = self._error(
                adaptive(reltol, reltol * 1e-3))
        assert errors[1e-4] < errors[1e-2]
        assert errors[1e-6] < errors[1e-4]
        assert errors[1e-6] < 1e-4

    def test_tight_tolerance_beats_fixed_grid_accuracy(self):
        """At reltol 1e-6 the adaptive run is more accurate than the fixed
        print-step grid while spending fewer linear solves."""
        fixed = TransientAnalysis(rc_decay_circuit(), tstop=2e-6,
                                  tstep=2e-8, use_ic=True).run()
        analytic = 3.0 * np.exp(-fixed.time / self.TAU)
        fixed_error = float(np.max(np.abs(fixed["a"].y - analytic)))
        adaptive_error, stats = self._error(adaptive(1e-6, 1e-9))
        assert adaptive_error < fixed_error
        assert stats["newton_iterations"] > 0

    def test_halved_tolerance_roughly_halves_error_scale(self):
        """Order sanity: two decades of tolerance buy at least one decade
        of accuracy in the controlled region."""
        coarse, _ = self._error(adaptive(1e-4, 1e-7))
        fine, _ = self._error(adaptive(1e-6, 1e-9))
        assert fine < coarse / 3.0


class TestControllerTelemetry:
    def test_reject_and_grow_counters(self):
        """A mid-run pulse edge forces rejections; the smooth stretches
        grow the step beyond the print interval."""
        circuit = Circuit("pulse rc")
        circuit.add(VoltageSource("V1", "in", "0",
                                  PulseShape(0.0, 1.0, 1e-6, 1e-9, 1e-9,
                                             5e-6, 10e-6)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = TransientAnalysis(circuit, tstop=4e-6, tstep=4e-8,
                                   timestep=adaptive(1e-4, 1e-7)).run()
        stats = result.stats
        assert stats["timestep_mode"] == "adaptive"
        assert stats["steps_accepted"] > 0
        assert stats["steps_rejected"] > 0
        assert 0.0 < stats["dt_min"] < stats["dt_max"]
        assert stats["dt_max"] > 4e-8  # grew past the print interval
        # Linear circuits pay exactly one solve per attempted step.
        assert stats["newton_iterations"] == (stats["steps_accepted"]
                                              + stats["steps_rejected"])

    def test_fixed_mode_reports_dt_range(self):
        result = TransientAnalysis(rc_decay_circuit(), tstop=1e-6,
                                   tstep=1e-8, use_ic=True).run()
        assert result.stats["timestep_mode"] == "fixed"
        assert result.stats["dt_min"] == pytest.approx(1e-8)
        assert result.stats["dt_max"] == pytest.approx(1e-8)

    def test_adaptive_saves_solves_on_smooth_circuit(self):
        fixed = TransientAnalysis(rc_decay_circuit(), tstop=2e-6,
                                  tstep=2e-8, use_ic=True).run()
        result = TransientAnalysis(rc_decay_circuit(), tstop=2e-6,
                                   tstep=2e-8, use_ic=True,
                                   timestep=adaptive(1e-4, 1e-7)).run()
        assert (result.stats["newton_iterations"]
                < fixed.stats["newton_iterations"])


class TestFixedEquivalence:
    """Adaptive mode pinned to the print grid degenerates to the fixed
    driver exactly — same step sequence, same solves, same waveforms."""

    def test_vco_print_point_agreement(self):
        circuit = build_vco()
        settings = nominal_transient_settings()
        fixed = TransientAnalysis(circuit, **settings).run()
        pinned = TransientOptions(
            mode="adaptive", dt_max=settings["tstep"],
            dt_initial=settings["tstep"], interpolate_prints=False,
            predictor_guess=False, lte_reltol=100.0, lte_abstol=100.0)
        result = TransientAnalysis(circuit, timestep=pinned, **settings).run()
        assert (result.stats["newton_iterations"]
                == fixed.stats["newton_iterations"])
        assert (result.stats["steps_accepted"]
                == fixed.stats["steps_accepted"])
        for node in fixed.nodes:
            np.testing.assert_allclose(result[node].y, fixed[node].y,
                                       rtol=0.0, atol=1e-12)

    def test_adaptive_vco_keeps_the_physics(self):
        """The genuinely adaptive VCO run (interpolated print points,
        growing steps) preserves the figure-level behaviour."""
        circuit = build_vco()
        settings = nominal_transient_settings()
        result = TransientAnalysis(
            circuit, timestep=adaptive(3e-3, 1e-4, dt_max=8e-8),
            **settings).run()
        output = result["11"]
        assert output.oscillates(min_swing=3.0)
        assert output.maximum() > 4.5 and output.minimum() < 0.5
        assert 0.8e6 < output.frequency() < 3e6
        assert result.stats["dt_max"] > nominal_transient_settings()["tstep"]

    def test_streaming_matches_full_recording(self):
        """Observed-node streaming under the adaptive driver records the
        same interpolated print samples as a full-trace run."""
        circuit = build_rc_ladder(8)
        kwargs = dict(tstop=5e-6, tstep=5e-8,
                      timestep=adaptive(1e-4, 1e-7))
        full = TransientAnalysis(circuit, **kwargs).run()
        streamed = TransientAnalysis(circuit, record_nodes=("n1", "n8"),
                                     **kwargs).run()
        np.testing.assert_array_equal(streamed["n1"].y, full["n1"].y)
        np.testing.assert_array_equal(streamed["n8"].y, full["n8"].y)
        assert streamed.stats["recorded_nodes"] == 2


class TestDtMinFloor:
    def test_fixed_mode_raises_transient_error(self):
        options = SimulationOptions(itl4=1)  # Newton can never converge
        with pytest.raises(TransientError) as excinfo:
            TransientAnalysis(inverter_circuit(), tstop=1e-7, tstep=1e-9,
                              use_ic=True, options=options).run()
        message = str(excinfo.value)
        assert "dt_min" in message and "t=" in message

    def test_adaptive_mode_names_time_and_lte(self):
        options = SimulationOptions(itl4=1)
        with pytest.raises(TransientError) as excinfo:
            TransientAnalysis(inverter_circuit(), tstop=1e-7, tstep=1e-9,
                              use_ic=True, options=options,
                              timestep=adaptive(1e-3, 1e-6)).run()
        message = str(excinfo.value)
        assert "dt_min" in message
        assert "t=" in message
        assert "LTE" in message

    def test_transient_error_is_a_convergence_error(self):
        """Campaign code classifies non-convergent faults by catching
        ConvergenceError; the floor error must stay in that family."""
        assert issubclass(TransientError, ConvergenceError)

    def test_explicit_floor_respected(self):
        """An explicit dt_min forbids refinement below it: the adaptive
        run accepts at the floor instead of spiralling downwards."""
        circuit = build_rc_ladder(4)
        topts = adaptive(1e-9, 1e-12, dt_min=5e-8, dt_max=5e-8,
                         dt_initial=5e-8)
        result = TransientAnalysis(circuit, tstop=5e-6, tstep=5e-8,
                                   timestep=topts).run()
        assert result.stats["dt_min"] >= 5e-8 * (1.0 - 1e-9)


# -- reference formulas for the history table --------------------------------

def _reference_table(ts, xs) -> dict:
    """``dd[j, k]`` over points ``j..k``, from scratch by the recurrence
    ``dd[j..k] = (dd[j+1..k] - dd[j..k-1]) / (t_k - t_j)``."""
    dd = {(j, j): xs[j] for j in range(len(ts))}
    for width in range(1, len(ts)):
        for j in range(len(ts) - width):
            k = j + width
            dd[j, k] = (dd[j + 1, k] - dd[j, k - 1]) / (ts[k] - ts[j])
    return dd


def _trap_be_predictor(ts, xs, t_new, order):
    """The BE/trap predictor as the integrator computed it before the table:
    linear (order 1) or quadratic (order 2) from the newest point."""
    if order == 1:
        (t0, t1), (x0, x1) = ts[-2:], xs[-2:]
        return x1 + (x1 - x0) / (t1 - t0) * (t_new - t1)
    (t0, t1, t2), (x0, x1, x2) = ts[-3:], xs[-3:]
    d01 = (x1 - x0) / (t1 - t0)
    d12 = (x2 - x1) / (t2 - t1)
    d012 = (d12 - d01) / (t2 - t0)
    return x2 + d12 * (t_new - t2) + d012 * (t_new - t2) * (t_new - t1)


def _bdf_predictor(ts, xs, order, t_new):
    """Value and derivative of the BDF predictor as computed before the
    table: an in-place Newton table over the newest ``order+1`` points,
    then Horner's rule."""
    n = order + 1
    ts = ts[-n:]
    coeffs = list(xs[-n:])
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (ts[i] - ts[i - level])
    value = coeffs[-1].copy()
    deriv = np.zeros_like(value)
    for i in range(n - 2, -1, -1):
        span = t_new - ts[i]
        deriv = deriv * span + value
        value = value * span + coeffs[i]
    return value, deriv


def _dense_output(ts, xs, t_new, x_new, t_out, order):
    """Dense output inside ``(ts[-1], t_new]`` as computed before the
    table (``ts``/``xs`` exclude the new point)."""
    if order <= 2:
        t1, x1 = ts[-1], xs[-1]
        if len(ts) < 2:
            return x1 + (t_out - t1) / (t_new - t1) * (x_new - x1)
        t0, x0 = ts[-2], xs[-2]
        d01 = (x1 - x0) / (t1 - t0)
        d12 = (x_new - x1) / (t_new - t1)
        d012 = (d12 - d01) / (t_new - t0)
        return x1 + d01 * (t_out - t1) + d012 * (t_out - t1) * (t_out - t0)
    points = min(order, len(ts))
    nodes = list(ts[-points:]) + [t_new]
    coeffs = list(xs[-points:]) + [x_new]
    n = len(nodes)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coeffs[i] = ((coeffs[i] - coeffs[i - 1])
                         / (nodes[i] - nodes[i - level]))
    value = coeffs[-1].copy()
    for i in range(n - 2, -1, -1):
        value = value * (t_out - nodes[i]) + coeffs[i]
    return value


def _bitwise(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _close(a, b) -> bool:
    """Within 1e-12 of the reference, relative to its largest entry."""
    return float(np.max(np.abs(a - b))) <= 1e-12 * float(np.max(np.abs(b)))


class TestHistoryTable:
    """The one divided-difference table the adaptive integrator reads: each
    entry bitwise equal to a from-scratch table; the BDF predictor and the
    order >= 3 dense output, which were Newton/Horner forms before, bitwise
    equal to the formulas they replaced; the BE/trap predictor and the
    order <= 2 dense output, which were anchored at another point, within
    1e-12."""

    @pytest.mark.parametrize("max_order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_table_and_readers_match_the_references(self, max_order, seed):
        rng = np.random.default_rng(seed)
        capacity = max_order + 2
        ts = [0.0]
        # Node-voltage-like states (a few volts) on a nanosecond grid.
        xs = [2.5 + rng.normal(size=6)]
        history = _History(capacity, ts[0], xs[0])
        # 4 * capacity points: the window overflows and slides many times.
        for _ in range(4 * capacity):
            window = len(history)
            assert window == min(len(ts), capacity)
            wts, wxs = ts[-window:], xs[-window:]
            dd = _reference_table(wts, wxs)
            for k in range(window):
                for m in range(k + 1):
                    assert _bitwise(history._columns[k][m], dd[k - m, k])
            for m in range(window):
                assert _bitwise(history.difference(m), dd[window - 1 - m,
                                                          window - 1])

            t_new = ts[-1] + rng.uniform(0.2, 3.0) * 1e-8
            x_new = xs[-1] + rng.normal(scale=0.3, size=6)
            for order in range(1, max_order + 1):
                if window < order + 1:
                    continue
                value, slope = history.newton(t_new, order + 1, slope=True)
                ref_value, ref_slope = _bdf_predictor(wts, wxs, order, t_new)
                assert _bitwise(value, ref_value)
                assert _bitwise(slope, ref_slope)
                if order <= 2:
                    assert _close(value, _trap_be_predictor(wts, wxs, t_new,
                                                            order))

            history.push(t_new, x_new)
            for order in range(1, max_order + 1):
                if order > 2 and window < order + 1:
                    continue
                same = _close if order <= 2 else _bitwise
                for fraction in (0.1, 0.5, 0.93):
                    t_out = ts[-1] + fraction * (t_new - ts[-1])
                    assert same(history.interpolate(t_out, order),
                                _dense_output(wts, wxs, t_new, x_new, t_out,
                                              order))
            ts.append(t_new)
            xs.append(x_new)

    def test_fixed_preset_keeps_no_states(self):
        run = TransientAnalysis(rc_decay_circuit(), tstop=1e-6,
                                tstep=1e-7).start()
        while run.advance():
            pass
        assert run._history._columns is None
        assert len(run._history) == run._history.capacity == 4


class TestQuantisationAndCache:
    def test_quantize_step_ladder(self):
        tstep = 1e-8
        for dt in (1e-8, 1.5e-8, 2e-8, 3.3e-8, 7.9e-8, 1e-9, 2.7e-11):
            snapped = quantize_step(dt, tstep)
            assert snapped <= dt * (1.0 + 1e-12)
            # On the ladder: log2(snapped/tstep) is a half-integer.
            k = 2.0 * np.log2(snapped / tstep)
            assert abs(k - round(k)) < 1e-6
        # Ladder values are fixed points.
        assert quantize_step(tstep, tstep) == pytest.approx(tstep)

    def test_lru_cache_evicts_oldest(self):
        cache = _LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency of "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_adaptive_linear_run_bounded_cache(self):
        """A long adaptive linear run stays within the configured number
        of distinct factorisations thanks to step quantisation (the run
        would not crash without it, but the cache proves the steps
        recur)."""
        circuit = build_rc_ladder(8)
        topts = adaptive(1e-4, 1e-7, solver_cache_size=4)
        result = TransientAnalysis(circuit, tstop=5e-6, tstep=5e-8,
                                   timestep=topts).run()
        assert result.stats["steps_accepted"] > 4


class TestCampaignPinning:
    """CampaignSettings carries the timestep policy; the fixed-step pin
    round-trips through checkpoint/resume with identical verdicts."""

    @staticmethod
    def _campaign():
        circuit = build_rc_lowpass(capacitance=1e-6)
        faults = FaultList("adaptive-pin")
        faults.add(BridgingFault(1, probability=1e-7, net_a="out",
                                 net_b="0"))
        faults.add(OpenFault(2, probability=1e-8, device="R1",
                             terminal="pos"))
        settings = CampaignSettings(tstop=5e-3, tstep=5e-5, use_ic=True,
                                    observation_nodes=("out",),
                                    tolerances=ToleranceSettings(0.3, 2e-4))
        return circuit, faults, settings

    def test_default_campaign_pins_fixed_mode(self):
        _, _, settings = self._campaign()
        assert settings.timestep.mode == "fixed"

    def test_default_timestep_keeps_legacy_fingerprint(self):
        """The fingerprint omits the ``timestep`` field at its default
        (which reproduces the legacy driver bit for bit), so checkpoints
        written before the field existed still resume after the upgrade."""
        from repro.anafault.checkpoint import _settings_text

        _, _, settings = self._campaign()
        assert "timestep" not in _settings_text(settings)
        adaptive_settings = dataclasses.replace(
            settings, timestep=TransientOptions(mode="adaptive"))
        assert "timestep" in _settings_text(adaptive_settings)

    def test_timestep_changes_fingerprint(self):
        circuit, faults, settings = self._campaign()
        adaptive_settings = dataclasses.replace(
            settings, timestep=TransientOptions(mode="adaptive"))
        assert (campaign_fingerprint(circuit, faults, settings)
                != campaign_fingerprint(circuit, faults, adaptive_settings))

    def test_checkpoint_roundtrip_identical_verdicts(self, tmp_path):
        circuit, faults, settings = self._campaign()
        path = tmp_path / "campaign.jsonl"
        first = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        resumed = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        assert resumed.telemetry()["checkpoint_skipped"] == len(faults)
        for a, b in zip(first.records, resumed.records):
            assert a.status == b.status
            assert a.detection_time == b.detection_time
            assert a.steps_accepted == b.steps_accepted
            assert a.steps_rejected == b.steps_rejected

    def test_checkpoint_refuses_other_timestep_policy(self, tmp_path):
        circuit, faults, settings = self._campaign()
        path = tmp_path / "campaign.jsonl"
        FaultSimulator(circuit, faults, settings).run(checkpoint=path)
        adaptive_settings = dataclasses.replace(
            settings, timestep=TransientOptions(mode="adaptive"))
        with pytest.raises(CampaignError,
                           match="timestep='fixed' campaign.*"
                                 "timestep='adaptive'"):
            FaultSimulator(circuit, faults, adaptive_settings).run(
                checkpoint=path)

    def test_adaptive_campaign_runs_and_reports(self):
        circuit, faults, settings = self._campaign()
        adaptive_settings = dataclasses.replace(
            settings, timestep=TransientOptions(mode="adaptive"))
        result = FaultSimulator(circuit, faults, adaptive_settings).run()
        telemetry = result.telemetry()
        assert telemetry["timestep_mode"] == "adaptive"
        assert telemetry["steps_accepted_total"] > 0
        assert result.count_by_status()["detected"] == 2
