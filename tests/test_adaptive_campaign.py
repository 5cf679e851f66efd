"""Adaptive campaigns end-to-end: decision scalar, checkpoints, CLI knobs.

The adaptive-timestep *engine* is covered by ``test_adaptive_timestep``
and ``test_bdf_order``; this module covers the campaign layer on top:

* ``persistent_deviation`` — the comparator's decision scalar (largest
  deviation sustained for a full persistence window) is the brute-force
  oracle's through ``compare``, ``compare_many`` and the streaming
  detector, and the verdict is exactly its comparison against the
  amplitude tolerance,
* adaptive checkpoints — a killed campaign (torn record tail) resumes to
  verdicts identical to the uninterrupted run,
* the CLI timestep knobs — ``--timestep/--lte-reltol`` on
  ``run``, and the explicit refusal when an adaptive run tries to resume
  a fixed-fingerprint checkpoint.
"""

import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    SerialExecutor,
    StreamingDetector,
    ToleranceSettings,
    WaveformComparator,
)
from repro.anafault.cli import main as cli_main
from repro.circuits import build_rc_lowpass
from repro.lift import BridgingFault, FaultList, OpenFault
from repro.spice import TransientOptions
from repro.spice.waveform import Waveform
from repro.spice.writer import write_netlist_file

from detection_oracle import oracle_detection


def _campaign():
    circuit = build_rc_lowpass(capacitance=1e-6)
    faults = FaultList("adaptive-campaign")
    faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0"))
    faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
    faults.add(BridgingFault(3, probability=2e-8, net_a="in", net_b="out"))
    settings = CampaignSettings(tstop=5e-3, tstep=5e-5, use_ic=True,
                                observation_nodes=("out",),
                                tolerances=ToleranceSettings(0.3, 2e-4),
                                timestep=TransientOptions(mode="adaptive"))
    return circuit, faults, settings


# ---------------------------------------------------------------------------
# persistent_deviation: one decision scalar, checked against the oracle
# ---------------------------------------------------------------------------

class TestPersistentDeviation:
    """amplitude 1.0, time tolerance 3e-3 on a 1e-3 grid -> window 3."""

    TOLERANCES = ToleranceSettings(amplitude=1.0, time=3e-3)

    def _compare(self, y):
        times = np.arange(10) * 1e-3
        comparator = WaveformComparator(self.TOLERANCES)
        nominal = Waveform(times, np.zeros_like(times))
        faulty = Waveform(times, np.asarray(y, dtype=float))
        return comparator, nominal, faulty, times

    def _checked(self, y):
        """``compare``, ``compare_many`` and a fed detector on ``y``, each
        asserted equal to the brute-force oracle."""
        comparator, nominal, faulty, times = self._compare(y)
        expected = oracle_detection(self.TOLERANCES, {"out": nominal},
                                    {"out": faulty})
        many = comparator.compare_many({"out": nominal}, {"out": faulty})
        single = comparator.compare(nominal, faulty, "out")
        detector = StreamingDetector(comparator, {"out": nominal}, times)
        for value in faulty.y:
            detector.feed({"out": value})
        assert many == detector.result() == expected
        assert single == dataclasses.replace(expected, signal="out")
        return expected

    def test_short_spike_is_invisible_to_both_verdict_and_scalar(self):
        # Two-sample spike of 5 V: shorter than the window, so neither
        # the verdict nor the decision scalar may see it.
        y = [0, 0, 5, 5, 0, 0, 0, 0, 0, 0]
        result = self._checked(y)
        assert not result.detected
        assert result.max_deviation == 5.0
        assert result.persistent_deviation < 1.0

    def test_sustained_deviation_sets_the_scalar(self):
        y = [0, 0, 2, 3, 2, 0, 0, 0, 0, 0]  # three samples >= 2
        result = self._checked(y)
        assert result.detected
        assert result.persistent_deviation == 2.0

    def test_verdict_is_exactly_the_scalar_threshold(self):
        for y in ([0] * 10,
                  [0, 0, 5, 5, 0, 0, 0, 0, 0, 0],
                  [0, 0, 2, 3, 2, 0, 0, 0, 0, 0],
                  [0.5] * 10,
                  [1.5] * 10):
            result = self._checked(y)
            assert result.detected == (
                result.persistent_deviation > self.TOLERANCES.amplitude)

    def test_evaluators_match_the_oracle_on_random_waveforms(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            self._checked(rng.uniform(-3.0, 3.0, size=10))


# ---------------------------------------------------------------------------
# Adaptive telemetry
# ---------------------------------------------------------------------------

def test_adaptive_telemetry_round_trips_through_json():
    circuit, faults, settings = _campaign()
    telemetry = FaultSimulator(circuit, faults, settings).run().telemetry()
    assert "calibration" not in telemetry
    assert json.loads(json.dumps(telemetry)) == telemetry


# ---------------------------------------------------------------------------
# Adaptive checkpoints: kill / resume round trip
# ---------------------------------------------------------------------------

class TestAdaptiveCheckpointResume:

    @staticmethod
    def _verdicts(result):
        return [(r.fault.fault_id, r.status, r.detection_time,
                 r.persistent_deviation, r.order_histogram)
                for r in result.records]

    def test_torn_checkpoint_resumes_to_identical_verdicts(self, tmp_path):
        circuit, faults, settings = _campaign()
        path = tmp_path / "adaptive.jsonl"
        reference = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        # Simulate a kill that lost the last in-flight fault: drop the
        # final record line (and leave the newline torn for good measure).
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n{\"kind\": \"rec",
                        encoding="utf-8")
        resumed = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        assert resumed.telemetry()["checkpoint_skipped"] == len(faults) - 1
        assert self._verdicts(resumed) == self._verdicts(reference)
        # The repaired file now resumes completely.
        final = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        assert final.telemetry()["checkpoint_skipped"] == len(faults)

    def test_order_histogram_survives_the_checkpoint(self, tmp_path):
        circuit, faults, settings = _campaign()
        path = tmp_path / "adaptive.jsonl"
        FaultSimulator(circuit, faults, settings).run(checkpoint=path)
        resumed = FaultSimulator(circuit, faults, settings).run(
            checkpoint=path)
        for record in resumed.records:
            assert record.order_histogram
            assert all(isinstance(k, str) for k in record.order_histogram)


# ---------------------------------------------------------------------------
# CLI knobs
# ---------------------------------------------------------------------------

class TestCommandLine:

    FLAGS = ["--observe", "out", "--amplitude-tolerance", "0.3",
             "--time-tolerance", "2e-4", "--preflight", "warn"]

    @pytest.fixture()
    def campaign_files(self, tmp_path):
        circuit, faults, _ = _campaign()
        netlist = tmp_path / "rc.cir"
        write_netlist_file(circuit, netlist, analyses=[".tran 5e-5 5e-3"])
        lift = tmp_path / "rc.lift"
        faults.dump(lift)
        return netlist, lift

    def _cli(self, *args, expect=0):
        out = io.StringIO()
        code = cli_main([str(a) for a in args], out=out)
        assert code == expect, out.getvalue()
        return out.getvalue()

    def test_lte_reltol_requires_adaptive(self, campaign_files, capsys):
        netlist, lift = campaign_files
        self._cli("run", netlist, lift, *self.FLAGS,
                  "--lte-reltol", "1e-3", expect=2)
        assert "--timestep adaptive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "shard", "submit"])
    def test_help_offers_the_timestep_knobs_and_no_calibration(
            self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert "--timestep" in text and "--lte-reltol" in text
        assert "--calibrate" not in text

    def test_adaptive_run_prints_the_overview(self, campaign_files):
        netlist, lift = campaign_files
        out = self._cli("run", netlist, lift, *self.FLAGS,
                        "--timestep", "adaptive", "--lte-reltol", "1e-3")
        assert "AnaFAULT campaign overview" in out
        assert "calibration" not in out

    def test_adaptive_resume_of_fixed_checkpoint_refused(self,
                                                         campaign_files,
                                                         tmp_path, capsys):
        netlist, lift = campaign_files
        checkpoint = tmp_path / "fixed.jsonl"
        self._cli("run", netlist, lift, *self.FLAGS,
                  "--checkpoint", checkpoint)
        self._cli("run", netlist, lift, *self.FLAGS,
                  "--timestep", "adaptive", "--checkpoint", checkpoint,
                  expect=2)
        err = capsys.readouterr().err
        assert "timestep='fixed'" in err
        assert "timestep='adaptive'" in err

    def test_adaptive_checkpoint_resumes_via_cli(self, campaign_files,
                                                 tmp_path):
        netlist, lift = campaign_files
        checkpoint = tmp_path / "adaptive.jsonl"
        args = ("run", netlist, lift, *self.FLAGS,
                "--timestep", "adaptive", "--checkpoint", checkpoint)
        self._cli(*args)
        first = {json.loads(line)["fault_id"]
                 for line in pathlib.Path(checkpoint).read_text().splitlines()
                 if json.loads(line)["kind"] == "record"}
        self._cli(*args)  # full resume: no new records, no refusal
        assert first == {1, 2, 3}

    def test_adaptive_shard_carries_the_timestep_fingerprint(
            self, campaign_files, tmp_path):
        netlist, lift = campaign_files
        fixed_shard = tmp_path / "fixed0.jsonl"
        adaptive_shard = tmp_path / "adaptive0.jsonl"
        shard = ("shard", netlist, lift, *self.FLAGS,
                 "--shard-index", 0, "--shard-count", 2)
        self._cli(*shard, "--out", fixed_shard)
        self._cli(*shard, "--timestep", "adaptive", "--out", adaptive_shard)
        fixed_fp = json.loads(pathlib.Path(fixed_shard)
                              .read_text().splitlines()[0])["fingerprint"]
        adaptive_fp = json.loads(pathlib.Path(adaptive_shard)
                                 .read_text().splitlines()[0])["fingerprint"]
        assert fixed_fp != adaptive_fp


# ---------------------------------------------------------------------------
# Batched executor under adaptive settings (REPRO_FORCE_BATCHED parity)
# ---------------------------------------------------------------------------

class TestBatchedAdaptiveParity:

    def test_forced_batched_adaptive_campaign_matches_serial(self,
                                                             monkeypatch):
        circuit, faults, settings = _campaign()
        serial = FaultSimulator(circuit, faults, settings).run(
            executor=SerialExecutor())
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "2")
        forced = FaultSimulator(circuit, faults, settings).run()
        assert forced.executor == "batched"
        for a, b in zip(forced.records, serial.records):
            assert a.status == b.status
            assert a.detection_time == b.detection_time
            assert a.persistent_deviation == b.persistent_deviation
            assert a.order_histogram == b.order_histogram
