"""Tests for AnaFAULT: injection, comparison, coverage and the campaign."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.anafault import (
    CampaignSettings,
    DetectionResult,
    FaultCoverage,
    FaultModelOptions,
    FaultSimulator,
    PoolExecutor,
    STATUS_DETECTED,
    SerialExecutor,
    StreamingDetector,
    ToleranceSettings,
    WaveformComparator,
    coverage_plot,
    format_fault_table,
    format_overview,
    full_report,
    inject_fault,
)
from repro.errors import CampaignError, FaultError, FaultInjectionError
from repro.lift import (
    BridgingFault,
    FaultList,
    OpenFault,
    ParametricFault,
    SplitNodeFault,
    StuckOpenFault,
)
from repro.spice import (
    CurrentSource,
    OperatingPointAnalysis,
    Resistor,
    VoltageSource,
    Waveform,
)

from detection_oracle import oracle_detection


class TestFaultModelOptions:
    def test_defaults_match_paper(self):
        options = FaultModelOptions()
        assert options.model == "resistor"
        assert options.short_resistance == pytest.approx(0.01)
        assert options.open_resistance == pytest.approx(100e6)

    def test_invalid_model_rejected(self):
        with pytest.raises(FaultError):
            FaultModelOptions(model="magic")

    def test_factories(self):
        assert FaultModelOptions.source().model == "source"
        assert FaultModelOptions.resistor(short_resistance=21.0).short_resistance == 21.0


class TestInjection:
    def test_bridge_resistor_model(self, rc_circuit):
        fault = BridgingFault(1, net_a="in", net_b="out")
        faulty = inject_fault(rc_circuit, fault)
        shorts = [d for d in faulty.devices_of_type(Resistor)
                  if d.resistance == pytest.approx(0.01)]
        assert len(shorts) == 1
        assert set(shorts[0].nodes) == {"in", "out"}
        # The original circuit is untouched.
        assert len(rc_circuit.devices_of_type(Resistor)) == 1

    def test_bridge_source_model(self, rc_circuit):
        fault = BridgingFault(1, net_a="in", net_b="out")
        faulty = inject_fault(rc_circuit, fault, FaultModelOptions.source())
        added = [d for d in faulty.devices_of_type(VoltageSource)
                 if d.name.lower().startswith("vfault")]
        assert len(added) == 1

    def test_bridge_unknown_net_raises(self, rc_circuit):
        with pytest.raises(FaultInjectionError):
            inject_fault(rc_circuit, BridgingFault(1, net_a="in", net_b="zz"))

    def test_bridge_behaviour_short_divider(self):
        from repro.circuits import build_cmos_inverter

        circuit = build_cmos_inverter(input_voltage=0.0)
        fault = BridgingFault(1, net_a="out", net_b="0")
        faulty = inject_fault(circuit, fault)
        op = OperatingPointAnalysis(faulty).run()
        assert op["out"] == pytest.approx(0.0, abs=0.05)

    def test_open_resistor_model(self, rc_circuit):
        fault = OpenFault(2, device="C1", terminal="pos")
        faulty = inject_fault(rc_circuit, fault)
        opens = [d for d in faulty.devices_of_type(Resistor)
                 if d.resistance == pytest.approx(100e6)]
        assert len(opens) == 1
        # The capacitor terminal has been moved to a fresh node.
        assert faulty.device("C1").nodes[0] != rc_circuit.device("C1").nodes[0]

    def test_open_source_model_uses_current_source(self, rc_circuit):
        fault = OpenFault(2, device="C1", terminal="pos")
        faulty = inject_fault(rc_circuit, fault, FaultModelOptions.source())
        added = [d for d in faulty.devices_of_type(CurrentSource)
                 if d.name.lower().startswith("iopen")]
        assert len(added) == 1

    def test_stuck_open_mosfet(self, vco_circuit):
        fault = StuckOpenFault(3, device="M25", terminal="drain")
        faulty = inject_fault(vco_circuit, fault)
        assert faulty.device("M25").nodes[0].startswith("n_open")

    def test_open_unknown_device_raises(self, rc_circuit):
        with pytest.raises(FaultInjectionError):
            inject_fault(rc_circuit, OpenFault(1, device="X9", terminal="pos"))

    def test_split_node(self, vco_circuit):
        fault = SplitNodeFault(4, net="8",
                               group_b=(("M17", "gate"), ("M18", "gate")))
        faulty = inject_fault(vco_circuit, fault)
        assert faulty.device("M17").nodes[1] == faulty.device("M18").nodes[1]
        assert faulty.device("M17").nodes[1] != "8"
        # Devices not in the group stay on the original net.
        assert faulty.device("M15").nodes[0] == "8"

    def test_split_with_no_matching_terminal_raises(self, vco_circuit):
        fault = SplitNodeFault(4, net="8", group_b=(("M1", "gate"),))
        with pytest.raises(FaultInjectionError):
            inject_fault(vco_circuit, fault)

    def test_parametric_capacitor(self, vco_circuit):
        fault = ParametricFault(5, device="C1", parameter="value",
                                relative_change=-0.5)
        faulty = inject_fault(vco_circuit, fault)
        assert faulty.device("C1").capacitance == pytest.approx(3e-12)

    def test_parametric_mosfet_width(self, vco_circuit):
        fault = ParametricFault(6, device="M5", parameter="w",
                                relative_change=0.2)
        faulty = inject_fault(vco_circuit, fault)
        assert faulty.device("M5").w == pytest.approx(vco_circuit.device("M5").w * 1.2)

    def test_parametric_model_parameter_gets_private_card(self, vco_circuit):
        fault = ParametricFault(7, device="M5", parameter="vto",
                                relative_change=0.25)
        faulty = inject_fault(vco_circuit, fault)
        model_name = faulty.device("M5").model_name
        assert model_name != vco_circuit.device("M5").model_name
        assert faulty.model(model_name).get("vto") == pytest.approx(1.0)

    def test_parametric_unknown_parameter_raises(self, vco_circuit):
        fault = ParametricFault(8, device="M5", parameter="banana",
                                relative_change=0.1)
        with pytest.raises(FaultInjectionError):
            inject_fault(vco_circuit, fault)

    def test_injected_title_mentions_fault(self, rc_circuit):
        faulty = inject_fault(rc_circuit, BridgingFault(9, net_a="in", net_b="out"))
        assert "#9" in faulty.title


class TestComparator:
    def _waves(self):
        t = np.linspace(0, 4e-6, 401)
        nominal = Waveform(t, 2.5 + 2.5 * np.sign(np.sin(2 * np.pi * 1.5e6 * t)))
        return t, nominal

    def test_identical_waveforms_not_detected(self):
        t, nominal = self._waves()
        result = WaveformComparator().compare(nominal, nominal)
        assert not result.detected
        assert result.max_deviation == 0.0

    def test_stuck_low_detected(self):
        t, nominal = self._waves()
        stuck = Waveform(t, np.zeros_like(t))
        result = WaveformComparator().compare(nominal, stuck)
        assert result.detected
        assert result.detection_time < 1e-6

    def test_small_offset_not_detected(self):
        t, nominal = self._waves()
        offset = Waveform(t, nominal.y + 1.0)
        assert not WaveformComparator().compare(nominal, offset).detected

    def test_short_glitch_filtered_by_time_tolerance(self):
        t, nominal = self._waves()
        glitchy = nominal.y.copy()
        glitchy[100:105] += 4.0        # 50 ns glitch << 200 ns tolerance
        result = WaveformComparator().compare(nominal, Waveform(t, glitchy))
        assert not result.detected

    def test_long_deviation_detected(self):
        t, nominal = self._waves()
        faulty = nominal.y.copy()
        faulty[200:250] += 4.0         # 500 ns deviation
        result = WaveformComparator().compare(nominal, Waveform(t, faulty))
        assert result.detected
        assert 1.9e-6 < result.detection_time < 2.6e-6

    def test_zero_time_tolerance_detects_single_sample(self):
        t, nominal = self._waves()
        faulty = nominal.y.copy()
        faulty[50] += 5.0
        comparator = WaveformComparator(ToleranceSettings(amplitude=2.0, time=0.0))
        assert comparator.compare(nominal, Waveform(t, faulty)).detected

    def test_compare_many_picks_earliest(self):
        t, nominal = self._waves()
        early = nominal.y.copy()
        early[40:80] += 5.0
        late = nominal.y.copy()
        late[300:340] += 5.0
        comparator = WaveformComparator()
        result = comparator.compare_many(
            {"a": nominal, "b": nominal},
            {"a": Waveform(t, late), "b": Waveform(t, early)})
        assert result.detected
        assert result.signal == "b"

    def test_negative_tolerances_rejected(self):
        with pytest.raises(CampaignError):
            ToleranceSettings(amplitude=-1.0)

    def test_compare_many_refuses_mixed_grids(self):
        t, nominal = self._waves()
        other = Waveform(t[:-1], nominal.y[:-1])
        with pytest.raises(CampaignError, match="'b' is not on the time grid"):
            WaveformComparator().compare_many(
                {"a": nominal, "b": nominal}, {"a": nominal, "b": other})

    def test_zero_sample_waveforms_are_undetected(self):
        """A failed/truncated transient's empty trace yields an undetected
        verdict with zero deviation, not a numpy crash."""
        _t, nominal = self._waves()
        empty = Waveform(np.array([]), np.array([]))
        comparator = WaveformComparator()
        assert comparator.compare(nominal, empty, "out") == \
            DetectionResult(False, None, 0.0, "out", 0.0)
        assert comparator.compare_many({"out": nominal}, {"out": empty}) == \
            DetectionResult(False, None, 0.0, "", 0.0)

    def test_zero_time_tolerance_detects_at_the_first_violation(self):
        t, nominal = self._waves()
        faulty = nominal.y.copy()
        faulty[50] += 5.0
        comparator = WaveformComparator(ToleranceSettings(2.0, 0.0))
        result = comparator.compare(nominal, Waveform(t, faulty))
        assert result.detected
        assert result.detection_time == t[50]


def _assert_all_match_the_oracle(tolerances, nominal, faulty):
    """``compare_many``, a fed :class:`StreamingDetector` and ``compare``
    per signal all equal :func:`oracle_detection`, field for field."""
    comparator = WaveformComparator(tolerances)
    expected = oracle_detection(tolerances, nominal, faulty)
    assert comparator.compare_many(nominal, faulty) == expected
    signals = {name: wave for name, wave in nominal.items() if name in faulty}
    if signals:
        times = next(iter(faulty.values())).x
        detector = StreamingDetector(comparator, signals, times)
        for index in range(times.size):
            detector.feed({name: faulty[name].y[index] for name in signals})
        assert detector.result() == expected
    for name in signals:
        single = oracle_detection(tolerances, {name: nominal[name]},
                                  {name: faulty[name]})
        # compare() keeps its signal on an undetected result too.
        single.signal = name
        assert comparator.compare(nominal[name], faulty[name], name) == single
    return expected


#: Sample values that make exact ties, band edges (deviation == amplitude)
#: and window-boundary runs likely, mixed with arbitrary floats.
_SAMPLES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                     st.floats(-3.0, 3.0))


class TestComparatorOracle:
    """The one persistence scan against the brute-force oracle."""

    @hyp_settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(),
           samples=st.integers(0, 24),
           signals=st.integers(1, 3),
           amplitude=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
           window_time=st.one_of(st.integers(0, 6).map(float),
                                 st.floats(0.0, 8.0)),
           dt=st.sampled_from([1.0, 0.25, 1e-8]))
    def test_drivers_and_detector_match_the_oracle(
            self, data, samples, signals, amplitude, window_time, dt):
        times = np.arange(samples) * dt
        tolerances = ToleranceSettings(amplitude, window_time * dt)
        nominal, faulty = {}, {}
        for index in range(signals):
            name = f"s{index}"
            column = st.lists(_SAMPLES, min_size=samples, max_size=samples)
            nominal[name] = Waveform(times, data.draw(column), name=name)
            faulty[name] = Waveform(times, data.draw(column), name=name)
        _assert_all_match_the_oracle(tolerances, nominal, faulty)

    @pytest.mark.parametrize("time_tolerance", [0.0, 0.5, 1.0])
    def test_window_of_one_detects_at_the_first_violation(
            self, time_tolerance):
        times = np.arange(6.0)
        nominal = {"out": Waveform(times, np.zeros(6))}
        faulty = {"out": Waveform(times, [0, 0, 3, 0, 3, 3])}
        result = _assert_all_match_the_oracle(
            ToleranceSettings(1.0, time_tolerance), nominal, faulty)
        assert (result.detected, result.detection_time,
                result.persistent_deviation) == (True, 2.0, 3.0)

    def test_exactly_one_window_detects_where_the_window_closes(self):
        times = np.arange(10.0)
        y = np.zeros(10)
        y[4:7] = 3.0
        result = _assert_all_match_the_oracle(
            ToleranceSettings(1.0, 3.0), {"out": Waveform(times, np.zeros(10))},
            {"out": Waveform(times, y)})
        assert (result.detected, result.detection_time) == (True, 6.0)

    def test_grid_shorter_than_the_window_never_detects(self):
        times = np.arange(3.0)
        result = _assert_all_match_the_oracle(
            ToleranceSettings(1.0, 5.0), {"out": Waveform(times, np.zeros(3))},
            {"out": Waveform(times, [5.0, 5.0, 5.0])})
        assert (result.detected, result.max_deviation,
                result.persistent_deviation) == (False, 5.0, 0.0)

    def test_empty_grids(self):
        empty = Waveform([], [])
        result = _assert_all_match_the_oracle(
            ToleranceSettings(), {"a": empty, "b": empty},
            {"a": empty, "b": empty})
        assert result == DetectionResult(False, None, 0.0, "", 0.0)

    def test_first_signal_wins_a_tie(self):
        times = np.arange(4.0)
        zeros, ones = np.zeros(4), np.ones(4)
        nominal = {"b": Waveform(times, zeros), "a": Waveform(times, zeros)}
        faulty = {"a": Waveform(times, ones), "b": Waveform(times, 2 * ones)}
        result = _assert_all_match_the_oracle(
            ToleranceSettings(0.5, 2.0), nominal, faulty)
        assert (result.signal, result.detection_time,
                result.max_deviation) == ("b", 1.0, 2.0)

    def test_undetected_signal_rule(self):
        """``compare`` keeps its ``signal`` on an undetected result,
        ``compare_many`` reports none."""
        times = np.arange(4.0)
        nominal = Waveform(times, np.zeros(4))
        comparator = WaveformComparator()
        assert comparator.compare(nominal, nominal, "out").signal == "out"
        assert comparator.compare_many({"out": nominal},
                                       {"out": nominal}).signal == ""

    def test_signals_missing_from_the_faulty_run_are_skipped(self):
        times = np.arange(4.0)
        zeros = Waveform(times, np.zeros(4))
        result = _assert_all_match_the_oracle(
            ToleranceSettings(0.5, 0.0), {"gone": zeros, "out": zeros},
            {"out": Waveform(times, [0, 0, 1, 0])})
        assert (result.signal, result.detection_time) == ("out", 2.0)


class TestCoverage:
    def _coverage(self):
        return FaultCoverage(
            total_faults=4,
            detection_times={1: 1e-6, 2: 2e-6, 3: 3e-6},
            probabilities={1: 4e-8, 2: 2e-8, 3: 1e-8, 4: 1e-8},
            end_time=4e-6)

    def test_final_coverage(self):
        assert self._coverage().final_coverage() == pytest.approx(0.75)

    def test_weighted_coverage(self):
        assert self._coverage().final_weighted_coverage() == pytest.approx(7 / 8)

    def test_coverage_at_time(self):
        cov = self._coverage()
        assert cov.coverage_at(0.5e-6) == 0.0
        assert cov.coverage_at(2.5e-6) == pytest.approx(0.5)
        assert cov.coverage_at(4e-6) == pytest.approx(0.75)

    def test_time_to_coverage(self):
        cov = self._coverage()
        assert cov.time_to_coverage(0.5) == pytest.approx(2e-6)
        assert cov.time_to_coverage(0.75) == pytest.approx(3e-6)
        assert cov.time_to_coverage(1.0) is None

    def test_curve_monotone(self):
        points = self._coverage().curve(21)
        values = [p.coverage for p in points]
        assert values == sorted(values)

    def test_waveform_in_percent(self):
        wave = self._coverage().waveform()
        assert wave.x[-1] == pytest.approx(100.0)
        assert wave.maximum() <= 100.0


class TestCampaignSmall:
    """Campaign mechanics exercised on the cheap RC circuit."""

    def _fault_list(self):
        faults = FaultList("rc faults")
        faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0",
                                 origin_layer="metal1"))
        faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
        faults.add(BridgingFault(3, probability=1e-9, net_a="in", net_b="out"))
        return faults

    def _settings(self):
        return CampaignSettings(tstop=5e-3, tstep=5e-5, use_ic=True,
                                observation_nodes=("out",),
                                tolerances=ToleranceSettings(0.3, 2e-4))

    def test_campaign_detects_hard_faults(self, rc_circuit):
        simulator = FaultSimulator(rc_circuit, self._fault_list(), self._settings())
        result = simulator.run()
        assert len(result.records) == 3
        by_id = {r.fault.fault_id: r for r in result.records}
        assert by_id[1].status == STATUS_DETECTED          # output shorted to ground
        assert by_id[2].status == STATUS_DETECTED          # series open
        assert by_id[3].status == STATUS_DETECTED          # input shorted to output
        assert result.fault_coverage() == pytest.approx(1.0)

    def test_campaign_records_detection_times(self, rc_circuit):
        result = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run()
        for record in result.records:
            if record.detected:
                assert 0.0 <= record.detection_time <= 5e-3

    def test_empty_fault_list_rejected(self, rc_circuit):
        with pytest.raises(CampaignError):
            FaultSimulator(rc_circuit, FaultList("empty"), self._settings())

    def test_injection_failure_recorded(self, rc_circuit):
        faults = FaultList("bad")
        faults.add(BridgingFault(1, net_a="out", net_b="nonexistent"))
        faults.add(BridgingFault(2, probability=1e-8, net_a="out", net_b="0"))
        result = FaultSimulator(rc_circuit, faults, self._settings()).run()
        statuses = {r.fault.fault_id: r.status for r in result.records}
        assert statuses[1] == "injection_failed"
        assert statuses[2] == STATUS_DETECTED

    def test_reports_render(self, rc_circuit):
        result = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run()
        overview = format_overview(result)
        assert "fault coverage" in overview
        table = format_fault_table(result)
        assert "BRI" in table
        plot = coverage_plot(result)
        assert "fault coverage vs time" in plot
        assert len(full_report(result)) > len(overview)

    def test_source_and_resistor_model_agree(self, rc_circuit):
        resistor = FaultSimulator(rc_circuit, self._fault_list(),
                                  self._settings()).run()
        settings = self._settings()
        settings.fault_model = FaultModelOptions.source()
        source = FaultSimulator(rc_circuit, self._fault_list(), settings).run()
        assert resistor.detected_ids() == source.detected_ids()

    def test_parallel_matches_serial(self, rc_circuit):
        serial = FaultSimulator(rc_circuit, self._fault_list(),
                                self._settings()).run(executor=SerialExecutor())
        parallel = FaultSimulator(rc_circuit, self._fault_list(),
                                  self._settings()).run(executor=PoolExecutor(2))
        assert serial.detected_ids() == parallel.detected_ids()
