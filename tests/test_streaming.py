"""Tests for the streaming fault-campaign engine.

Covers the two legs of the engine (see ``docs/campaigns.md``):

* observed-node streaming in the transient kernel (record only the
  comparator nodes),
* JSONL checkpoint/resume (kill a campaign mid-run, resume, and get a
  result record-for-record identical to an uninterrupted one),

plus the robustness fixes that ride along (empty/partial telemetry,
``record_for`` raising ``KeyError``).
"""

from __future__ import annotations

import json
import pathlib
import pickle
import shutil

import numpy as np
import pytest

from repro.anafault import (
    CampaignCheckpoint,
    CampaignSettings,
    FaultSimulator,
    PoolExecutor,
    SerialExecutor,
    ToleranceSettings,
    campaign_fingerprint,
)
from repro.anafault.checkpoint import RECORD_FIELDS, _settings_text
from repro.anafault.executors import record_from_payload
from repro.anafault.simulator import CampaignResult
from repro.anafault.wire import settings_from_wire, settings_to_wire
from repro.errors import AnalysisError, CampaignError
from repro.lift import BridgingFault, FaultList, OpenFault, ParametricFault
from repro.spice import TransientAnalysis


def _fault_list() -> FaultList:
    """Five faults covering every record status the campaign can produce."""
    faults = FaultList("rc streaming faults")
    faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0"))
    faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
    faults.add(ParametricFault(3, probability=1e-9, device="R1",
                               parameter="value", relative_change=0.01))
    faults.add(BridgingFault(4, probability=1e-9, net_a="out",
                             net_b="missing"))
    faults.add(BridgingFault(5, probability=1e-9, net_a="in", net_b="out"))
    return faults


def _settings(**overrides) -> CampaignSettings:
    base = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                observation_nodes=("out",),
                tolerances=ToleranceSettings(0.3, 2e-4))
    base.update(overrides)
    return CampaignSettings(**base)


#: A checkpoint of the ``_fault_list()``/``_settings()`` campaign written
#: before the shared-memory store and the reporting tail were retired.
LEGACY_CHECKPOINT = (pathlib.Path(__file__).parent / "data"
                     / "rc_campaign_checkpoint.jsonl")

#: ``_settings_text(CampaignSettings())`` and the fingerprint of the
#: ``_fault_list()``/``_settings()`` campaign, captured before the retired
#: settings were deleted: dropping verdict-neutral fields must not move
#: any campaign identity.
PINNED_SETTINGS_TEXT = (
    "tstop=4e-06, tstep=1e-08, use_ic=True, observation_nodes=('11',), "
    "initial_conditions={}, tolerances=ToleranceSettings(amplitude=2.0, "
    "time=2e-07), fault_model=FaultModelOptions(model='resistor', "
    "short_resistance=0.01, open_resistance=100000000.0), "
    "simulator_options=SimulationOptions(reltol=0.001, vntol=1e-06, "
    "abstol=1e-09, gmin=1e-12, itl1=200, itl4=60, temperature=27.0, "
    "integration='trap', max_voltage_step=10.0, gmin_steps=10, "
    "source_steps=10, min_step_fraction=0.00390625), "
    "count_failed_as_detected=True, solver_backend=None")
PINNED_FINGERPRINT = "c7e02b26b7d56f671cf21a322cf55f11"


def _semantic(record) -> tuple:
    """The verdict-level identity of a record (no timing telemetry)."""
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on, record.max_deviation,
            record.newton_iterations)


class TestObservedNodeStreaming:
    def test_streamed_trace_matches_full_run(self, rc_circuit):
        kwargs = dict(tstop=5e-3, tstep=5e-5)
        full = TransientAnalysis(rc_circuit, **kwargs).run()
        streamed = TransientAnalysis(rc_circuit, record_nodes=("out",),
                                     **kwargs).run()
        np.testing.assert_array_equal(streamed["out"].y, full["out"].y)
        assert streamed.stats["recorded_nodes"] == 1
        assert streamed.stats["trace_bytes"] < full.stats["trace_bytes"]

    def test_unselected_node_not_recorded(self, rc_circuit):
        result = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                   record_nodes=("out",)).run()
        with pytest.raises(AnalysisError, match="no recorded signal"):
            result.waveform("in")

    def test_unknown_record_node_raises_up_front(self, rc_circuit):
        analysis = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                     record_nodes=("nonexistent",))
        with pytest.raises(AnalysisError, match="unknown signal"):
            analysis.run()

    def test_branch_current_signals_stream_too(self, rc_circuit):
        """Campaigns may observe a source current; streaming must keep
        resolving those signals instead of rejecting them as unknown."""
        kwargs = dict(tstop=5e-3, tstep=5e-5)
        full = TransientAnalysis(rc_circuit, **kwargs).run()
        streamed = TransientAnalysis(rc_circuit, record_nodes=("VIN",),
                                     **kwargs).run()
        np.testing.assert_array_equal(streamed["vin"].y,
                                      full.current("vin").y)

    def test_ground_is_allowed_and_synthesised(self, rc_circuit):
        result = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                   record_nodes=("out", "0")).run()
        assert np.all(result["0"].y == 0.0)


class TestCheckpointFile:
    def test_fingerprint_sensitivity(self, rc_circuit):
        faults = _fault_list()
        base = campaign_fingerprint(rc_circuit, faults, _settings())
        assert base == campaign_fingerprint(rc_circuit, _fault_list(),
                                            _settings())
        shorter = _settings(tstop=4e-3)
        assert base != campaign_fingerprint(rc_circuit, faults, shorter)
        fewer = FaultList("rc streaming faults", faults.faults[:-1])
        assert base != campaign_fingerprint(rc_circuit, fewer, _settings())
        # Streaming never changed verdicts: a settings document of the
        # full-trace days must not orphan a checkpoint.
        full_trace = settings_from_wire(settings_to_wire(_settings())
                                        | {"stream_traces": False})
        assert base == campaign_fingerprint(rc_circuit, faults, full_trace)

    def test_campaign_identity_is_pinned(self, rc_circuit):
        assert _settings_text(CampaignSettings()) == PINNED_SETTINGS_TEXT
        assert campaign_fingerprint(rc_circuit, _fault_list(),
                                    _settings()) == PINNED_FINGERPRINT

    def test_load_missing_file_is_empty(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "never-written.jsonl")
        assert checkpoint.load("abc") == {}

    def test_mismatched_fingerprint_refuses_resume(self, rc_circuit,
                                                   tmp_path):
        path = tmp_path / "campaign.jsonl"
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        simulator.run(checkpoint=path)
        other = FaultSimulator(rc_circuit, _fault_list(),
                               _settings(tstop=4e-3))
        with pytest.raises(CampaignError, match="different campaign"):
            other.run(checkpoint=path)

    def test_torn_tail_line_is_tolerated(self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        reference = simulator.run(checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "fault_id": 99, "status"')
        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, reference.records))

    def test_torn_header_line_is_rewritten(self, rc_circuit, tmp_path):
        """A kill while writing the very first line must not poison the
        file: the next run rewrites the header and later resumes work."""
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "header", "version": 1, "fingerp')
        first = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        assert resumed.checkpoint_skipped == len(first.records)
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, first.records))

    def test_duplicate_fault_ids_rejected_with_checkpoint(self, rc_circuit,
                                                          tmp_path):
        faults = FaultList("dupes")
        faults.add(BridgingFault(1, net_a="out", net_b="0"))
        faults.add(BridgingFault(1, net_a="in", net_b="out"))
        simulator = FaultSimulator(rc_circuit, faults, _settings())
        with pytest.raises(CampaignError, match="unique fault ids"):
            simulator.run(checkpoint=tmp_path / "c.jsonl")
        # Without a checkpoint the duplicate-id list still simulates.
        assert len(simulator.run().records) == 2

    def test_append_requires_start(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "c.jsonl")
        with pytest.raises(CampaignError, match="start"):
            checkpoint.append(object())


class TestCheckpointResume:
    def test_interrupted_run_resumes_identically(self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        faults = _fault_list()

        class Interrupted(RuntimeError):
            """Stands in for a crash/kill mid-campaign."""

        def kill_after_two(done, _total, _record):
            if done == 2:
                raise Interrupted()

        with pytest.raises(Interrupted):
            FaultSimulator(rc_circuit, faults, _settings()).run(
                checkpoint=path, progress_callback=kill_after_two)

        persisted = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert persisted[0]["kind"] == "header"
        assert [e["fault_id"] for e in persisted[1:]] == [1, 2]

        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        baseline = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run()
        assert resumed.checkpoint_skipped == 2
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, baseline.records))
        assert resumed.fault_coverage() == baseline.fault_coverage()

    def test_legacy_checkpoint_resumes_with_every_fault_skipped(
            self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        shutil.copy(LEGACY_CHECKPOINT, path)
        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        assert resumed.checkpoint_skipped == 5
        assert path.read_bytes() == LEGACY_CHECKPOINT.read_bytes()
        baseline = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run()
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, baseline.records))

    def test_completed_checkpoint_skips_every_fault(self, rc_circuit,
                                                    tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(checkpoint=path)
        lines_before = len(path.read_text().splitlines())
        second = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(checkpoint=path)
        assert second.checkpoint_skipped == len(first.records)
        assert second.telemetry()["checkpoint_skipped"] == 5
        assert len(path.read_text().splitlines()) == lines_before
        assert list(map(_semantic, second.records)) == \
            list(map(_semantic, first.records))
        # Reloaded records crossed no IPC in this run, and the engine
        # telemetry must reflect the serial fallback actually taken even
        # when more workers were requested.
        third = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(executor=PoolExecutor(2), checkpoint=path)
        telemetry = third.telemetry()
        assert telemetry["record_ipc_bytes_total"] == 0
        assert telemetry["workers"] == 1
        assert telemetry["nominal_ipc_bytes"] == 0

    def test_worker_exception_mid_campaign_then_resume(self, rc_circuit,
                                                       tmp_path, monkeypatch):
        """Simulated worker crash: an exception raised inside a process-pool
        worker kills the campaign; the checkpoint keeps everything finished
        before the crash and the resumed run completes the rest."""
        path = tmp_path / "campaign.jsonl"
        original = FaultSimulator.simulate_fault

        def poisoned(self, fault, nominal):
            if fault.fault_id == 5:
                raise RuntimeError("injected worker crash")
            return original(self, fault, nominal)

        monkeypatch.setattr(FaultSimulator, "simulate_fault", poisoned)
        with pytest.raises(RuntimeError, match="injected worker crash"):
            FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
                executor=PoolExecutor(2), checkpoint=path)
        monkeypatch.undo()

        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(executor=PoolExecutor(2), checkpoint=path)
        baseline = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run()
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, baseline.records))


class _FullTraceSimulator(FaultSimulator):
    """A campaign whose transients materialise every unknown, as campaigns
    did before observed-node streaming became the only path."""

    def _make_transient(self, circuit):
        analysis = super()._make_transient(circuit)
        analysis.record_nodes = None
        return analysis


class TestStreamingCampaign:
    def test_streaming_and_full_trace_verdicts_agree(self, rc_circuit):
        streaming = FaultSimulator(rc_circuit, _fault_list(),
                                   _settings()).run()
        full = _FullTraceSimulator(rc_circuit, _fault_list(),
                                   _settings()).run()
        assert list(map(_semantic, streaming.records)) == \
            list(map(_semantic, full.records))
        # The point of streaming: less trace memory per simulated fault.
        streamed_traces = [r.trace_bytes for r in streaming.records
                           if r.trace_bytes]
        full_traces = [r.trace_bytes for r in full.records if r.trace_bytes]
        assert max(streamed_traces) < min(full_traces)

    def test_campaign_transients_record_only_the_observation_nodes(
            self, rc_circuit):
        """Every simulated fault materialised one column (``out``) of
        print rows, never the full unknowns x time matrix."""
        result = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        rows = round(5e-3 / 5e-5) + 1
        assert {r.trace_bytes for r in result.records
                if r.trace_bytes} == {rows * 8}
        with pytest.raises(CampaignError, match="stream_traces is retired"):
            _settings(stream_traces=False)

    def test_serial_parallel_equivalent(self, rc_circuit):
        serial = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=SerialExecutor())
        parallel = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run(executor=PoolExecutor(2))
        fields = [name for name in RECORD_FIELDS if name != "elapsed_seconds"]
        for ours, theirs in zip(serial.records, parallel.records, strict=True):
            assert ([getattr(ours, name) for name in fields]
                    == [getattr(theirs, name) for name in fields])
        assert serial.nominal_ipc_bytes == 0
        # Each worker receives the pickled nominal dict once.
        assert parallel.nominal_ipc_bytes == len(pickle.dumps(serial.nominal))
        # Workers stamp the IPC cost of every record they send home.
        assert all(r.payload_bytes > 0 for r in parallel.records)
        assert parallel.telemetry()["record_ipc_bytes_total"] > 0


class TestResultRobustness:
    def _empty(self) -> CampaignResult:
        return CampaignResult(CampaignSettings(), FaultList("empty", []))

    def test_telemetry_on_empty_records(self):
        telemetry = self._empty().telemetry()
        assert telemetry["faults"] == 0
        assert telemetry["fault_seconds_mean"] == 0.0
        assert telemetry["record_ipc_bytes_mean"] == 0.0
        assert telemetry["trace_bytes_max"] == 0

    def test_count_by_status_on_empty_and_partial(self):
        result = self._empty()
        assert result.count_by_status() == {}
        result.records = [None]  # a fault that never ran
        assert result.count_by_status() == {}
        assert result.telemetry()["faults"] == 0
        assert result.coverage().total_faults == 0

    def test_record_for_raises_keyerror_naming_id(self):
        result = self._empty()
        with pytest.raises(KeyError, match="fault id 42"):
            result.record_for(42)


def _edit_record(path: pathlib.Path, fault_id: int, edit) -> None:
    """Rewrite the checkpoint line of ``fault_id`` through ``edit``
    (decoded entry -> raw line text)."""
    lines = path.read_text().splitlines()
    for number, line in enumerate(lines):
        entry = json.loads(line)
        if entry.get("fault_id") == fault_id:
            lines[number] = edit(entry)
    path.write_text("\n".join(lines) + "\n")


class TestMalformedCheckpointRecords:
    """A hand-edited or corrupted record line fails resume with a
    :class:`CampaignError` naming the fault, the field and the file."""

    @pytest.mark.parametrize("field, value", [
        ("newton_iterations", "x"),
        ("steps_accepted", float("inf")),
        ("trace_bytes", -1),
        ("attempt", 0),
        ("steps_rejected", True),
        ("order_histogram", "x"),
        ("order_histogram", {"2": 1.5}),
        ("status", "x"),
        ("detection_time", "soon"),
        ("detection_time", float("nan")),
        ("max_deviation", "big"),
        ("detected_on", 3),
        ("message", ["boom"]),
    ])
    def test_bad_field_names_fault_field_and_file(self, rc_circuit,
                                                  tmp_path, field, value):
        path = tmp_path / "campaign.jsonl"
        shutil.copy(LEGACY_CHECKPOINT, path)
        _edit_record(path, 2, lambda entry: json.dumps({**entry,
                                                        field: value}))
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        with pytest.raises(CampaignError) as excinfo:
            simulator.plan(checkpoint=path)
        message = str(excinfo.value)
        assert "fault id 2" in message
        assert f"{field}=" in message
        assert str(path) in message

    def test_missing_fields_take_the_defaults(self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        shutil.copy(LEGACY_CHECKPOINT, path)
        _edit_record(path, 2, lambda entry: json.dumps(
            {key: value for key, value in entry.items()
             if key not in ("attempt", "order_histogram")}))
        plan = FaultSimulator(rc_circuit, _fault_list(),
                              _settings()).plan(checkpoint=path)
        record = plan.preloaded[1]
        assert (record.attempt, record.order_histogram) == (1, {})
        assert record.status == "detected"

    def test_non_object_payload_is_refused(self):
        with pytest.raises(CampaignError, match="fault id 1 from here is list"):
            record_from_payload(_fault_list().faults[0], [], source="here")
