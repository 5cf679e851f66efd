"""Differential harness for the batched campaign executor.

The concurrent-fault-simulation tentpole (batched lockstep transients,
``docs/batching.md``) is only safe because this suite pins it to the
serial reference:

* hypothesis-generated RC / inverter circuit families plus random LIFT
  fault lists, simulated by :class:`~repro.anafault.BatchedExecutor` and
  :class:`~repro.anafault.SerialExecutor`, must produce record-for-record
  identical results (verdict, detection time, counters) at batch widths
  1, 3, K and K+1 (ragged tail),
* the VCO family of the paper gets a deterministic spot check,
* early abort may never change a verdict or detection time — including
  never-detected faults, zero-sample traces and detections landing
  exactly on the persistence-window boundary,
* a variant diverging mid-batch (``SingularMatrixError``, the ``dt_min``
  floor) is evicted to the failure record serial execution produces
  without perturbing its batch siblings,
* batched runs share checkpoints with serial runs (fingerprint-pinned
  resume round-trip) and the resumed telemetry step totals no longer
  double-count checkpoint-skipped faults.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.anafault import (
    STATUS_DETECTED,
    STATUS_INJECTION_FAILED,
    STATUS_SIM_FAILED,
    BatchedExecutor,
    CampaignSettings,
    FaultSimulator,
    PoolExecutor,
    SerialExecutor,
    StreamingDetector,
    ToleranceSettings,
    WaveformComparator,
)
from repro.anafault.cli import main as cli_main
from repro.circuits.library import build_cmos_inverter, build_rc_lowpass
from repro.errors import CampaignError, SingularMatrixError, TransientError
from repro.lift import BridgingFault, FaultList, OpenFault, ParametricFault
from repro.spice import Waveform
from repro.spice.analysis import (
    BatchedTransient,
    TransientAnalysis,
    TransientOptions,
)
from repro.spice.writer import write_netlist_file

from detection_oracle import oracle_detection

# ---------------------------------------------------------------------------
# Campaign helpers (mirrors tests/test_executors.py so the two suites pin
# the same reference campaign)
# ---------------------------------------------------------------------------

#: The pool random fault lists draw from: detected, undetected and
#: injection-failure statuses are all reachable.
FAULT_POOL = (
    lambda i: BridgingFault(i, probability=1e-7, net_a="out", net_b="0"),
    lambda i: OpenFault(i, probability=1e-8, device="R1", terminal="pos"),
    lambda i: ParametricFault(i, probability=1e-9, device="R1",
                              parameter="value", relative_change=0.01),
    lambda i: BridgingFault(i, probability=1e-9, net_a="out",
                            net_b="missing"),
    lambda i: BridgingFault(i, probability=1e-9, net_a="in", net_b="out"),
    lambda i: ParametricFault(i, probability=1e-9, device="C1",
                              parameter="value", relative_change=0.5),
    lambda i: ParametricFault(i, probability=1e-9, device="R1",
                              parameter="value", relative_change=3.0),
)


def _fault_list(choices=range(len(FAULT_POOL))) -> FaultList:
    faults = FaultList("batched differential faults")
    for fault_id, choice in enumerate(choices, start=1):
        faults.add(FAULT_POOL[choice](fault_id))
    return faults


def _settings(**overrides) -> CampaignSettings:
    base = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                observation_nodes=("out",),
                tolerances=ToleranceSettings(0.3, 2e-4))
    base.update(overrides)
    return CampaignSettings(**base)


def _semantic(record) -> tuple:
    """Everything two executors must agree on (no wall-clock telemetry)."""
    if record is None:
        return None
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on, record.max_deviation,
            record.persistent_deviation,
            record.newton_iterations, record.steps_accepted,
            record.steps_rejected, record.trace_bytes)


def _verdict(record) -> tuple:
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on)


def _run(circuit, faults, settings, executor):
    return FaultSimulator(circuit, faults, settings).run(executor=executor)


def _assert_identical(circuit, faults, settings, width, **kwargs):
    serial = _run(circuit, faults, settings, SerialExecutor())
    batched = _run(circuit, faults, settings,
                   BatchedExecutor(batch_width=width, **kwargs))
    assert ([_semantic(r) for r in batched.records]
            == [_semantic(r) for r in serial.records])
    return serial, batched


# ---------------------------------------------------------------------------
# Differential suite: batched == serial, record for record
# ---------------------------------------------------------------------------

class TestDifferential:

    @pytest.mark.parametrize("width", [1, 3, 7, 8])
    def test_rc_campaign_identical_at_width(self, rc_circuit, width):
        """Widths 1, 3, K and K+1 (ragged tail) over the full 7-fault
        reference list, injection failure included mid-batch."""
        _assert_identical(rc_circuit, _fault_list(), _settings(), width)

    @hyp_settings(max_examples=8, deadline=None)
    @given(resistance=st.sampled_from([3e2, 1e3, 4.7e3]),
           capacitance=st.sampled_from([2.2e-7, 1e-6, 3.3e-6]),
           choices=st.lists(st.integers(0, len(FAULT_POOL) - 1),
                            min_size=1, max_size=6),
           width=st.integers(1, 7))
    def test_rc_family_differential(self, resistance, capacitance, choices,
                                    width):
        """Random RC circuits x random LIFT fault lists x random widths."""
        circuit = build_rc_lowpass(resistance=resistance,
                                   capacitance=capacitance)
        _assert_identical(circuit, _fault_list(choices), _settings(), width)

    @hyp_settings(max_examples=4, deadline=None)
    @given(input_voltage=st.sampled_from([0.0, 2.5, 5.0]),
           width=st.integers(2, 4))
    def test_inverter_family_differential(self, input_voltage, width):
        """The nonlinear (Newton-iterating) family: a CMOS inverter with
        opens and bridges on its transistors."""
        circuit = build_cmos_inverter(input_voltage=input_voltage)
        faults = FaultList("inverter faults")
        faults.add(OpenFault(1, probability=1e-7, device="MN",
                             terminal="drain"))
        faults.add(BridgingFault(2, probability=1e-8, net_a="out",
                                 net_b="vdd"))
        faults.add(BridgingFault(3, probability=1e-9, net_a="out",
                                 net_b="0"))
        settings = _settings(tstop=1e-4, tstep=1e-6,
                             tolerances=ToleranceSettings(1.0, 4e-6))
        _assert_identical(circuit, faults, settings, width)

    def test_vco_family_differential(self, vco_circuit, vco_fault_list,
                                     fast_campaign_settings):
        """Deterministic spot check on the paper's VCO: the three most
        probable GLRFM faults, batched vs serial."""
        faults = vco_fault_list.top(3)
        _assert_identical(vco_circuit, faults, fast_campaign_settings, 3)

    def test_batched_shares_nominal_stats_with_serial(self, rc_circuit):
        serial, batched = _assert_identical(rc_circuit, _fault_list(),
                                            _settings(), 4)
        assert batched.nominal_stats == serial.nominal_stats
        assert batched.executor == "batched"
        assert serial.executor == "serial"


# ---------------------------------------------------------------------------
# Early abort: verdicts and detection times never move
# ---------------------------------------------------------------------------

class TestEarlyAbort:

    def test_verdicts_identical_with_abort_on_and_off(self, rc_circuit):
        faults = _fault_list()
        plain = _run(rc_circuit, faults, _settings(),
                     BatchedExecutor(batch_width=4))
        aborting = _run(rc_circuit, faults, _settings(),
                        BatchedExecutor(batch_width=4, early_abort=True))
        assert ([_verdict(r) for r in aborting.records]
                == [_verdict(r) for r in plain.records])
        # Detected faults abort; only their post-decision telemetry shrinks.
        assert aborting.early_aborted > 0
        for full, cut in zip(plain.records, aborting.records):
            assert cut.steps_accepted <= full.steps_accepted
            assert cut.max_deviation <= full.max_deviation

    def test_never_detected_faults_run_the_full_grid(self, rc_circuit):
        """An undetected verdict is only certain at the last sample, so
        early abort must not fire and the records stay bit-identical."""
        faults = _fault_list(choices=[2])  # 1% parametric drift: undetected
        plain = _run(rc_circuit, faults, _settings(),
                     BatchedExecutor(batch_width=2))
        aborting = _run(rc_circuit, faults, _settings(),
                        BatchedExecutor(batch_width=2, early_abort=True))
        assert aborting.early_aborted == 0
        assert ([_semantic(r) for r in aborting.records]
                == [_semantic(r) for r in plain.records])

    def test_detection_on_window_boundary(self):
        """A violation run exactly as long as the persistence window must
        detect — streamed, at the sample where the oracle detects."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        times = np.arange(10.0)  # dt = 1 -> window = 3 samples
        nominal_y = np.zeros(10)
        faulty_y = np.zeros(10)
        faulty_y[4:7] = 1.0  # exactly 3 consecutive violations
        nominal = {"out": Waveform(times, nominal_y, name="out")}
        reference = oracle_detection(
            comparator.tolerances, nominal,
            {"out": Waveform(times, faulty_y, name="out")})
        assert reference.detected and reference.detection_time == 6.0

        detector = StreamingDetector(comparator, nominal, times)
        decided_at = None
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
            if decided_at is None and detector.decided:
                decided_at = index
        assert decided_at == 6  # certain exactly when the window closes
        assert detector.result() == reference

    def test_one_short_of_the_window_stays_undetected(self):
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        times = np.arange(10.0)
        faulty_y = np.zeros(10)
        faulty_y[4:6] = 1.0  # 2 < window of 3
        nominal = {"out": Waveform(times, np.zeros(10), name="out")}
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
            assert not detector.decided
        result = detector.result()
        assert not result.detected and result.detection_time is None

    def test_zero_sample_trace(self):
        """An empty print grid: undetected, zero deviation, and feeding
        anything is refused (as the oracle reads empty grids)."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        empty = np.asarray([], dtype=float)
        nominal = {"out": Waveform(empty, empty, name="out")}
        detector = StreamingDetector(comparator, nominal, empty)
        assert detector.result() == oracle_detection(
            comparator.tolerances, nominal, nominal)
        with pytest.raises(CampaignError, match="grid"):
            detector.feed({"out": 0.0})


class TestStreamingDetector:

    @hyp_settings(max_examples=30, deadline=None)
    @given(samples=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
           amplitude=st.floats(0.1, 2.0),
           window_time=st.floats(0.0, 8.0))
    def test_matches_the_oracle(self, samples, amplitude, window_time):
        """Fed the whole grid, the incremental scan reproduces the
        brute-force oracle field for field on arbitrary waveforms."""
        comparator = WaveformComparator(
            ToleranceSettings(amplitude, window_time))
        times = np.arange(float(len(samples)))
        faulty_y = np.asarray(samples, dtype=float)
        nominal = {"out": Waveform(times, np.zeros(times.size), name="out")}
        reference = oracle_detection(
            comparator.tolerances, nominal,
            {"out": Waveform(times, faulty_y, name="out")})
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
        assert detector.result() == reference

    def test_first_signal_tie_break(self):
        """Two signals detecting at the same sample: dict order wins,
        exactly as in the oracle."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 0.0))
        times = np.arange(4.0)
        ones = np.ones(4)
        nominal = {"a": Waveform(times, np.zeros(4), name="a"),
                   "b": Waveform(times, np.zeros(4), name="b")}
        faulty = {"a": Waveform(times, ones, name="a"),
                  "b": Waveform(times, ones, name="b")}
        reference = oracle_detection(comparator.tolerances, nominal, faulty)
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(4):
            detector.feed({"a": 1.0, "b": 1.0})
        assert detector.result() == reference
        assert reference.signal == "a"

    def test_feed_past_grid_end_raises(self):
        comparator = WaveformComparator()
        times = np.arange(2.0)
        nominal = {"out": Waveform(times, np.zeros(2), name="out")}
        detector = StreamingDetector(comparator, nominal, times)
        detector.feed({"out": 0.0})
        detector.feed({"out": 0.0})
        assert detector.cursor == 2
        with pytest.raises(CampaignError):
            detector.feed({"out": 0.0})

    @pytest.mark.parametrize("row", [
        {"a": 5.0},
        {"a": 5.0, "b": None},
        {"a": 5.0, "b": "1.0"},
        {"a": 5.0, "b": float("nan")},
        {"a": 5.0, "b": np.nan},
        {"a": 5.0, "b": float("inf")},
        {"a": 5.0, "b": -np.inf},
        {"a": 5.0, "b": np.array([1.0, 2.0])},
    ], ids=["missing", "none", "string", "nan", "numpy-nan", "inf", "-inf",
            "array"])
    def test_malformed_row_raises_naming_signal_and_sample(self, row):
        """A bad value is refused with a ``CampaignError`` naming the
        signal and the sample, before any signal's state changes."""
        comparator = WaveformComparator(ToleranceSettings(1.0, 2.0))
        times = np.arange(4.0)
        zeros = Waveform(times, np.zeros(4))
        nominal = {"a": zeros, "b": zeros}
        detector = StreamingDetector(comparator, nominal, times)
        detector.feed({"a": 5.0, "b": 0.0})
        with pytest.raises(CampaignError, match=r"(row|sample) 1\b.*'b'"):
            detector.feed(row)
        assert detector.cursor == 1
        for _ in range(3):
            detector.feed({"a": 5.0, "b": 0.0})
        faulty = Waveform(times, np.full(4, 5.0))
        assert detector.result() == oracle_detection(
            comparator.tolerances, nominal, {"a": faulty, "b": zeros})

    @pytest.mark.parametrize("row", [None, [5.0, 0.0], 5.0])
    def test_non_mapping_row_raises(self, row):
        comparator = WaveformComparator()
        times = np.arange(2.0)
        detector = StreamingDetector(
            comparator, {"a": Waveform(times, np.zeros(2))}, times)
        with pytest.raises(CampaignError, match="row 0 has no value for "
                                                "signal 'a'"):
            detector.feed(row)

    def test_non_finite_nominal_raises_naming_signal_and_sample(self):
        times = np.arange(4.0)
        nominal = {"a": Waveform(times, np.zeros(4)),
                   "b": Waveform(times, [0.0, 0.0, np.nan, 0.0])}
        with pytest.raises(CampaignError, match="'b' is nan at sample 2"):
            StreamingDetector(WaveformComparator(), nominal, times)


# ---------------------------------------------------------------------------
# Divergence: one variant fails, its siblings don't notice
# ---------------------------------------------------------------------------

def _poisoned_batch(position: int, error: Exception, at_index: int):
    """A :class:`BatchedTransient` whose variant ``position`` raises
    ``error`` once its transient reaches print row ``at_index`` — the
    deterministic stand-in for a mid-batch solver failure."""

    class _Poisoned(BatchedTransient):
        def begin(self):
            super().begin()
            run = self.runs[position]
            if run is not None:
                original = run.advance

                def advance():
                    if run.output_index >= at_index:
                        raise error
                    return original()

                run.advance = advance
            return self

    return _Poisoned


class TestDivergence:

    def test_injection_failure_mid_batch_is_isolated(self, rc_circuit):
        """The uninjectable fault (missing net) sits in the middle of one
        batch; its siblings' records match the serial run exactly."""
        faults = _fault_list(choices=[0, 3, 6])  # fault 2 is uninjectable
        serial, batched = _assert_identical(rc_circuit, faults, _settings(),
                                            3)
        statuses = [r.status for r in batched.records]
        assert statuses[1] == STATUS_INJECTION_FAILED
        assert STATUS_INJECTION_FAILED not in (statuses[0], statuses[2])

    @pytest.mark.parametrize("error", [
        SingularMatrixError("pivot underflow in variant"),
        TransientError("timestep underflow below dt_min"),
    ])
    def test_mid_batch_solver_failure_evicts_one_variant(
            self, rc_circuit, monkeypatch, error):
        """A variant hitting ``SingularMatrixError`` or the ``dt_min``
        floor mid-batch becomes a failure record; its siblings still
        match serial execution record for record."""
        faults = _fault_list(choices=[0, 6, 4])
        serial = _run(rc_circuit, faults, _settings(), SerialExecutor())
        monkeypatch.setattr("repro.spice.analysis.batched.BatchedTransient",
                            _poisoned_batch(1, error, at_index=20))
        batched = _run(rc_circuit, faults, _settings(),
                       BatchedExecutor(batch_width=3))
        evicted = batched.records[1]
        assert evicted.status == STATUS_DETECTED  # count_failed_as_detected
        assert evicted.detection_time == 0.0
        assert str(error) in evicted.message
        for position in (0, 2):
            assert (_semantic(batched.records[position])
                    == _semantic(serial.records[position]))

    def test_eviction_respects_count_failed_as_detected(
            self, rc_circuit, monkeypatch):
        faults = _fault_list(choices=[0, 6])
        monkeypatch.setattr("repro.spice.analysis.batched.BatchedTransient",
                            _poisoned_batch(0, TransientError("dt floor"),
                                            at_index=10))
        result = _run(rc_circuit, faults,
                      _settings(count_failed_as_detected=False),
                      BatchedExecutor(batch_width=2))
        assert result.records[0].status == STATUS_SIM_FAILED
        assert result.records[0].detection_time is None

    def test_spice_level_eviction_leaves_siblings_bit_identical(self):
        """Below the campaign layer: evicting one variant of a
        :class:`BatchedTransient` leaves the sibling waveforms
        ``array_equal`` to their solo runs."""
        circuits = [build_rc_lowpass(capacitance=c)
                    for c in (1e-6, 2e-6, 5e-7)]
        solo = [TransientAnalysis(c, tstop=5e-3, tstep=5e-5,
                                  use_ic=True).run() for c in circuits]
        analyses = [TransientAnalysis(c, tstop=5e-3, tstep=5e-5, use_ic=True)
                    for c in circuits]
        batch = BatchedTransient(analyses)
        batch.begin()
        run = batch.runs[1]
        original = run.advance

        def poisoned():
            if run.output_index >= 30:
                raise SingularMatrixError("poisoned variant")
            return original()

        run.advance = poisoned
        batch.run()
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], SingularMatrixError)
        for position in (0, 2):
            result = batch.runs[position].finish()
            assert np.array_equal(result.waveform("out").y,
                                  solo[position].waveform("out").y)
            assert result.stats == solo[position].stats


# ---------------------------------------------------------------------------
# Lockstep Newton rounds on the VCO: mixed sizes, aborts, eviction
# ---------------------------------------------------------------------------

#: A short VCO transient: enough print rows for many lockstep rounds.
VCO_TSTOP, VCO_TSTEP = 3e-7, 1e-8
VCO_ADAPTIVE = TransientOptions(mode="adaptive", lte_reltol=3e-3,
                                lte_abstol=1e-4, dt_max=8e-8)


@pytest.fixture(scope="module")
def vco_mixed_faults(vco_layout_pair, vco_fault_list):
    """Three bridges (19 unknowns), three opens (one extra node: 20) and
    two parametric MOSFET faults, interleaved so every batch mixes
    sizes."""
    circuit, _ = vco_layout_pair
    bridges = [f for f in vco_fault_list if isinstance(f, BridgingFault)]
    opens = [f for f in vco_fault_list if isinstance(f, OpenFault)]
    mosfets = [d.name for d in circuit.devices if d.name.upper()
               .startswith("M")]
    parametric = [
        ParametricFault(9001, probability=1e-9, device=mosfets[0],
                        parameter="w", relative_change=0.5),
        ParametricFault(9002, probability=1e-9, device=mosfets[3],
                        parameter="vto", relative_change=-0.2)]
    faults = [bridges[0], opens[0], parametric[0], bridges[1], opens[1],
              parametric[1], bridges[2], opens[2]]
    return circuit, faults


def _vco_analyses(circuit, faults, adaptive: bool):
    from repro.anafault import inject_fault

    timestep = VCO_ADAPTIVE if adaptive else TransientOptions()
    return [TransientAnalysis(inject_fault(circuit, fault), tstop=VCO_TSTOP,
                              tstep=VCO_TSTEP, use_ic=True,
                              timestep=timestep)
            for fault in faults]


def _solo(analysis, output_index=None):
    """Print-row bytes and stats of ``analysis`` run alone, to the end or
    until it has produced the rows before ``output_index``."""
    run = analysis.start()
    while (run.output_index < (output_index or len(run.times))
           and run.advance()):
        pass
    return run.data.tobytes(), run.finish().stats


class TestLockstepRounds:

    def test_vco_batch_mixes_system_sizes(self, vco_mixed_faults):
        circuit, faults = vco_mixed_faults
        sizes = {analysis.start().builder.size for analysis in
                 _vco_analyses(circuit, faults[:3], adaptive=False)}
        assert len(sizes) == 2

    @pytest.mark.parametrize("abort", [False, True],
                             ids=["run-out", "early-abort"])
    @pytest.mark.parametrize("width", [3, 8])
    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_vco_rounds_are_bit_identical_to_solo_runs(
            self, vco_mixed_faults, adaptive, width, abort):
        """Opens, bridges and parametric faults in one batch: every
        variant's print rows and stats are byte for byte its solo run's
        (for an aborted variant, its solo run cut at the same row)."""
        circuit, faults = vco_mixed_faults
        for start in range(0, len(faults), width):
            chunk = faults[start:start + width]
            batch = BatchedTransient(_vco_analyses(circuit, chunk, adaptive))
            # Variant j stops after print row 3 + 3 j (under abort).
            stops = {j: 3 + 3 * j for j in range(len(chunk))}

            def observe(print_index, live):
                return [j for j in live if abort and stops[j] == print_index]

            batch.run(observe)
            assert not batch.errors
            assert batch.aborted == (set(stops) if abort else set())
            solo = _vco_analyses(circuit, chunk, adaptive)
            for j, run in enumerate(batch.runs):
                cut = run.output_index if abort else None
                assert (run.data.tobytes(), run.finish().stats) == \
                    _solo(solo[j], cut), f"fault {chunk[j].fault_id}"

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_vco_campaign_batched_equals_serial(self, vco_mixed_faults,
                                                adaptive):
        circuit, faults = vco_mixed_faults
        settings = _settings(
            tstop=VCO_TSTOP, tstep=VCO_TSTEP, observation_nodes=("11",),
            tolerances=ToleranceSettings(0.5, 2e-8),
            timestep=VCO_ADAPTIVE if adaptive else TransientOptions())
        fault_list = FaultList("mixed VCO faults", faults)
        serial, _ = _assert_identical(circuit, fault_list, settings, 8)
        aborted = _run(circuit, fault_list, settings,
                       BatchedExecutor(batch_width=3, early_abort=True))
        assert ([_verdict(r) for r in aborted.records]
                == [_verdict(r) for r in serial.records])

    def test_nonlinear_eviction_leaves_siblings_bit_identical(
            self, vco_mixed_faults):
        """A variant failing inside the lockstep rounds is evicted; its
        siblings' print rows and stats stay ``array_equal`` to their solo
        runs.  The poison sits on the per-variant seam the rounds drive,
        :meth:`TransientRun.steps`."""
        circuit, faults = vco_mixed_faults
        chunk = faults[:4]
        batch = BatchedTransient(_vco_analyses(circuit, chunk, False))
        batch.begin()
        run = batch.runs[1]
        original = run.steps

        def poisoned():
            if run.output_index >= 12:
                raise SingularMatrixError("poisoned variant")
            return (yield from original())

        run.steps = poisoned
        batch.run()
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], SingularMatrixError)
        solo = _vco_analyses(circuit, chunk, False)
        for position in (0, 2, 3):
            result = batch.runs[position]
            assert (result.data.tobytes(), result.finish().stats) == \
                _solo(solo[position])


# ---------------------------------------------------------------------------
# Checkpoint resume + telemetry (satellite: no double counting)
# ---------------------------------------------------------------------------

class TestResumeAndTelemetry:

    def test_fingerprint_pinned_batched_resume_round_trip(
            self, rc_circuit, tmp_path):
        """Serial and batched runs share one checkpoint format and
        fingerprint: a serial checkpoint truncated mid-campaign resumes
        under the batched executor to the identical record set."""
        path = tmp_path / "campaign.jsonl"
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        lines = path.read_text().splitlines()
        fingerprint = json.loads(lines[0])["fingerprint"]
        path.write_text("\n".join(lines[:4]) + "\n")  # header + 3 records

        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=2), checkpoint=path)
        assert resumed.checkpoint_skipped == 3
        assert ([_verdict(r) for r in resumed.records]
                == [_verdict(r) for r in serial.records])
        # Re-simulated records also carry identical counters.
        for fresh, reference in list(zip(resumed.records,
                                         serial.records))[3:]:
            assert _semantic(fresh) == _semantic(reference)
        # The resumed file is the complete campaign under one fingerprint.
        assert json.loads(path.read_text().splitlines()[0])[
            "fingerprint"] == fingerprint
        final = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=4), checkpoint=path)
        assert final.checkpoint_skipped == len(_fault_list())

    def test_batched_checkpoint_resumes_serially(self, rc_circuit, tmp_path):
        """The reverse direction: a batched checkpoint is a plain campaign
        checkpoint any executor can resume."""
        path = tmp_path / "campaign.jsonl"
        batched = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=3), checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        assert resumed.checkpoint_skipped == len(_fault_list())
        assert ([_verdict(r) for r in resumed.records]
                == [_verdict(r) for r in batched.records])

    def test_resume_step_totals_count_only_this_run(self, rc_circuit,
                                                    tmp_path):
        """Checkpoint-skipped faults keep their per-record counters but
        no longer inflate the campaign step totals on resume."""
        path = tmp_path / "campaign.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=2), checkpoint=path)
        telemetry = resumed.telemetry()
        nominal = resumed.nominal_stats
        fresh = [r for r in resumed.records if not r.reloaded]
        assert len(fresh) == len(_fault_list()) - 3
        assert telemetry["steps_accepted_total"] == (
            sum(r.steps_accepted for r in fresh)
            + int(nominal.get("steps_accepted", 0)))
        assert telemetry["newton_iterations_total"] == (
            sum(r.newton_iterations for r in fresh)
            + int(nominal.get("newton_iterations", 0)))
        # The reloaded records still report their original counters.
        assert any(r.reloaded and r.steps_accepted > 0
                   for r in resumed.records)

    def test_fully_resumed_run_reports_nominal_work_only(self, rc_circuit,
                                                         tmp_path):
        path = tmp_path / "campaign.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=4), checkpoint=path)
        telemetry = resumed.telemetry()
        assert telemetry["checkpoint_skipped"] == len(_fault_list())
        assert telemetry["steps_accepted_total"] == int(
            resumed.nominal_stats.get("steps_accepted", 0))

    def test_double_emission_is_refused(self, rc_circuit):
        """The campaign manager refuses an executor that emits one index
        twice — the failure mode behind double-counted telemetry."""

        class DoubleEmitter(SerialExecutor):
            def execute(self, simulator, plan, nominal, emit):
                info = super().execute(simulator, plan, nominal, emit)
                record = simulator.simulate_fault(
                    plan.faults[plan.pending[0]], nominal)
                emit(plan.pending[0], record)  # second emission: refused
                return info

        with pytest.raises(CampaignError, match="twice"):
            FaultSimulator(rc_circuit, _fault_list(choices=[0, 6]),
                           _settings()).run(executor=DoubleEmitter())

    def test_batched_telemetry_fields(self, rc_circuit):
        result = _run(rc_circuit, _fault_list(), _settings(),
                      BatchedExecutor(batch_width=4, early_abort=True))
        telemetry = result.telemetry()
        assert telemetry["executor"] == "batched"
        assert telemetry["batch_width"] == 4
        assert telemetry["early_aborted"] == result.early_aborted > 0
        serial = _run(rc_circuit, _fault_list(), _settings(),
                      SerialExecutor())
        assert serial.telemetry()["batch_width"] == 0


# ---------------------------------------------------------------------------
# Knobs, validation, env forcing
# ---------------------------------------------------------------------------

class TestKnobs:

    def test_batch_width_validated(self):
        with pytest.raises(CampaignError, match="batch_width"):
            BatchedExecutor(batch_width=0)

    @pytest.mark.parametrize("value", [
        "abc", float("nan"), None, 2.7, True, False, 0, -3, 2.0, "2",
        np.float64(3.0), np.bool_(True)])
    @pytest.mark.parametrize("executor, argument", [
        (lambda v: BatchedExecutor(batch_width=v), "batch_width"),
        (PoolExecutor, "workers")], ids=["batched", "pool"])
    def test_count_arguments_must_be_integers_from_one(
            self, executor, argument, value):
        """No foreign exception escapes and nothing is coerced: the error
        names the argument and the value."""
        with pytest.raises(CampaignError, match=argument) as caught:
            executor(value)
        assert repr(value) in str(caught.value)

    @pytest.mark.parametrize("value", [1, 3, np.int64(3), np.uint8(2)])
    def test_count_arguments_accept_integers(self, value):
        assert BatchedExecutor(batch_width=value).batch_width == int(value)
        assert type(BatchedExecutor(batch_width=value).batch_width) is int
        assert PoolExecutor(value).workers == int(value)

    def test_adaptive_campaigns_batch_like_serial(self, rc_circuit):
        settings = dataclasses.replace(
            _settings(), timestep=TransientOptions(mode="adaptive"))
        batched = FaultSimulator(rc_circuit, _fault_list(), settings).run(
            executor=BatchedExecutor(batch_width=3))
        serial = FaultSimulator(rc_circuit, _fault_list(), settings).run(
            executor=SerialExecutor())
        assert batched.executor == "batched"
        assert ([_semantic(r) for r in batched.records]
                == [_semantic(r) for r in serial.records])

    def test_env_forces_batched_default_executor(self, rc_circuit,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        forced = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        assert forced.executor == "batched"
        assert forced.batch_width == 3
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=SerialExecutor())
        assert ([_semantic(r) for r in forced.records]
                == [_semantic(r) for r in serial.records])

    @pytest.mark.parametrize("value,width", [("", 0), ("0", 0), ("on", 4)])
    def test_env_force_value_parsing(self, rc_circuit, monkeypatch, value,
                                     width):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", value)
        result = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                _settings()).run()
        assert result.batch_width == width

    def test_env_force_batches_adaptive_campaigns(self, rc_circuit,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        settings = dataclasses.replace(
            _settings(), timestep=TransientOptions(mode="adaptive"))
        forced = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                settings).run()
        assert forced.executor == "batched"
        assert forced.batch_width == 3
        serial = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                settings).run(executor=SerialExecutor())
        assert ([_semantic(r) for r in forced.records]
                == [_semantic(r) for r in serial.records])

    def test_env_force_never_overrides_an_explicit_executor(self, rc_circuit,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        result = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                _settings()).run(executor=SerialExecutor())
        assert result.executor == "serial"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCommandLine:

    FLAGS = ["--observe", "out", "--amplitude-tolerance", "0.3",
             "--time-tolerance", "2e-4", "--preflight", "warn"]

    @pytest.fixture()
    def campaign_files(self, rc_circuit, tmp_path):
        netlist = tmp_path / "rc.cir"
        write_netlist_file(rc_circuit, netlist, analyses=[".tran 5e-5 5e-3"])
        faults = tmp_path / "rc.lift"
        _fault_list().dump(faults)
        return netlist, faults

    @staticmethod
    def _records(path) -> dict[int, tuple]:
        entries = [json.loads(line) for line in
                   pathlib.Path(path).read_text().splitlines()]
        return {e["fault_id"]: (e["status"], e["detection_time"],
                                e["detected_on"], e["max_deviation"])
                for e in entries if e["kind"] == "record"}

    def _cli(self, *args, expect=0):
        out = io.StringIO()
        code = cli_main([str(a) for a in args], out=out)
        assert code == expect, out.getvalue()
        return out.getvalue()

    def test_run_batch_width_matches_serial_checkpoint(self, campaign_files,
                                                       tmp_path):
        netlist, faults = campaign_files
        serial = tmp_path / "serial.jsonl"
        batched = tmp_path / "batched.jsonl"
        self._cli("run", netlist, faults, *self.FLAGS,
                  "--checkpoint", serial)
        out = self._cli("run", netlist, faults, *self.FLAGS,
                        "--batch-width", 3, "--checkpoint", batched)
        assert "AnaFAULT campaign overview" in out
        assert self._records(batched) == self._records(serial)

    def test_early_abort_requires_batch_width(self, campaign_files, capsys):
        netlist, faults = campaign_files
        self._cli("run", netlist, faults, *self.FLAGS, "--early-abort",
                  expect=2)
        assert "--batch-width" in capsys.readouterr().err

    def test_batch_width_excludes_workers(self, campaign_files, capsys):
        netlist, faults = campaign_files
        self._cli("run", netlist, faults, *self.FLAGS, "--batch-width", 2,
                  "--workers", 2, expect=2)
        assert "--workers" in capsys.readouterr().err
