"""Tests for the layered campaign-execution architecture.

Covers the plan -> execute -> collect decomposition of the campaign layer
(see ``docs/campaigns.md``):

* the :class:`~repro.anafault.CampaignPlan` partitioning (shard slices,
  checkpoint skipped/pending, validation),
* the executor seam (serial, pool, batched, and a custom executor plugged
  in through ``FaultSimulator.run(executor=...)``),
* shard-identity guarantees: 2/3/uneven shard splits
  (``run(shard_index=, shard_count=, checkpoint=)``) merge bit-identically
  to the serial run under every executor, overlapping-slice and
  wrong-fingerprint merges refuse, a missing shard surfaces as ``None``
  holes the aggregates tolerate, malformed shard files refuse with the
  file named,
* the ``python -m repro.anafault`` CLI round-trip via ``subprocess``,

plus the satellite fixes riding along (duplicate-id ``record_for``,
monotone resume progress).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.anafault import (
    BatchedExecutor,
    CampaignSettings,
    ExecutionInfo,
    FaultSimulator,
    PoolExecutor,
    SerialExecutor,
    ToleranceSettings,
    campaign_fingerprint,
    merge_shards,
)
from repro.errors import CampaignError
from repro.lift import BridgingFault, FaultList, OpenFault, ParametricFault
from repro.spice.writer import write_netlist_file

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fault_list() -> FaultList:
    """Five faults covering every record status the campaign can produce."""
    faults = FaultList("rc shard faults")
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


def _semantic(record) -> tuple:
    """The verdict-level identity of a record (no timing telemetry)."""
    if record is None:
        return None
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on, record.max_deviation,
            record.newton_iterations, record.steps_accepted,
            record.trace_bytes)


def _run_shard(rc_circuit, index, count, path, **kwargs):
    """Run shard ``index``/``count`` of the campaign into ``path``."""
    return FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
        checkpoint=path, shard_index=index, shard_count=count, **kwargs)


def _run_shards(rc_circuit, tmp_path, shard_count, executor=None) -> list:
    """Run every shard of a ``shard_count``-way split; returns the paths."""
    paths = []
    for index in range(shard_count):
        path = tmp_path / f"shard{index}-of-{shard_count}.jsonl"
        _run_shard(rc_circuit, index, shard_count, path, executor=executor)
        paths.append(path)
    return paths


class TestCampaignPlan:
    def test_unsharded_plan_covers_everything(self, rc_circuit):
        plan = FaultSimulator(rc_circuit, _fault_list(), _settings()).plan()
        assert plan.indices == list(range(5))
        assert plan.pending == list(range(5))
        assert plan.preloaded == {}
        assert not plan.sharded
        assert plan.fingerprint == ""  # nothing keys records: not computed

    def test_shard_slices_partition_the_list(self, rc_circuit):
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        slices = [simulator.plan(shard_index=i, shard_count=3).indices
                  for i in range(3)]
        assert slices == [[0, 3], [1, 4], [2]]  # round-robin, deterministic
        assert sorted(index for s in slices for index in s) == list(range(5))
        fingerprints = {simulator.plan(shard_index=i, shard_count=3).fingerprint
                        for i in range(3)}
        assert len(fingerprints) == 1  # shards share one campaign identity
        assert fingerprints != {""}

    def test_invalid_shard_spec_rejected(self, rc_circuit):
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        for index, count in ((2, 2), (-1, 2), (0, 0)):
            with pytest.raises(CampaignError, match="shard specification"):
                simulator.plan(shard_index=index, shard_count=count)
        with pytest.raises(CampaignError, match="shard specification"):
            simulator.run(shard_index=5, shard_count=2)

    def test_sharding_requires_unique_fault_ids(self, rc_circuit):
        faults = FaultList("dupes")
        faults.add(BridgingFault(1, net_a="out", net_b="0"))
        faults.add(BridgingFault(1, net_a="in", net_b="out"))
        simulator = FaultSimulator(rc_circuit, faults, _settings())
        with pytest.raises(CampaignError, match="unique fault ids"):
            simulator.plan(shard_index=0, shard_count=2)

    def test_checkpoint_partitions_skipped_and_pending(self, rc_circuit,
                                                       tmp_path):
        path = tmp_path / "campaign.jsonl"
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        simulator.run(checkpoint=path)
        plan = simulator.plan(checkpoint=path)
        assert plan.pending == []
        assert sorted(plan.preloaded) == list(range(5))
        assert plan.skipped == plan.total == 5


class TestExecutorSeam:
    def test_custom_executor_plugs_in(self, rc_circuit):
        """Any object with the CampaignExecutor shape slots into run()."""

        class ReversedExecutor:
            name = "reversed"

            def execute(self, simulator, plan, nominal, emit):
                for index in reversed(plan.pending):
                    emit(index,
                         simulator.simulate_fault(plan.faults[index], nominal))
                return ExecutionInfo(executor=self.name)

        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        result = simulator.run(executor=ReversedExecutor())
        baseline = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        # Records land in fault order regardless of execution order.
        assert list(map(_semantic, result.records)) == \
            list(map(_semantic, baseline.records))
        assert result.executor == "reversed"
        assert result.telemetry()["executor"] == "reversed"

    def test_serial_and_pool_executors_agree(self, rc_circuit):
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=SerialExecutor())
        pool = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=PoolExecutor(2))
        assert list(map(_semantic, serial.records)) == \
            list(map(_semantic, pool.records))
        assert serial.executor == "serial"
        assert pool.executor == "pool"
        assert pool.workers == 2
        assert pool.nominal_ipc_bytes > 0

    def test_one_worker_pool_runs_in_process(self, rc_circuit):
        result = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=PoolExecutor(1))
        assert result.executor == "serial"
        assert result.workers == 1
        assert result.nominal_ipc_bytes == 0

    def test_run_campaign_forwards_the_executor_seam(self, rc_circuit):
        """run_campaign() exposes the same seam: executor= passes through."""
        from repro.anafault import run_campaign

        serial = run_campaign(rc_circuit, _fault_list(), _settings(),
                              executor=SerialExecutor())
        pool = run_campaign(rc_circuit, _fault_list(), _settings(),
                            executor=PoolExecutor(2))
        assert ([_semantic(r) for r in pool.records]
                == [_semantic(r) for r in serial.records])
        assert (serial.executor, pool.executor) == ("serial", "pool")


class TestShardIdentity:
    @pytest.mark.parametrize("shard_count", [2, 3, 4])
    def test_shard_merge_is_bit_identical_to_serial(self, rc_circuit,
                                                    tmp_path, shard_count):
        """2/3/uneven splits (4 shards over 5 faults leave one shard a
        single fault) merge record-for-record identical to one host."""
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        paths = _run_shards(rc_circuit, tmp_path, shard_count)
        merged = merge_shards(rc_circuit, _fault_list(), _settings(), paths,
                              require_complete=True)
        assert list(map(_semantic, merged.records)) == \
            list(map(_semantic, serial.records))
        assert merged.fault_coverage() == serial.fault_coverage()
        assert merged.count_by_status() == serial.count_by_status()
        assert merged.executor == "merge"

    def test_shard_run_result_has_holes_for_other_shards(self, rc_circuit,
                                                         tmp_path):
        result = _run_shard(rc_circuit, 0, 2, tmp_path / "s0.jsonl",
                            executor=SerialExecutor())
        # The telemetry names how the slice ran; the slice is its own field.
        assert result.executor == "serial"
        assert (result.shard_index, result.shard_count) == (0, 2)
        live = [r for r in result.records if r is not None]
        assert [r.fault.fault_id for r in live] == [1, 3, 5]
        assert [r is None for r in result.records] == \
            [False, True, False, True, False]
        # Aggregates tolerate the holes.
        assert result.telemetry()["faults"] == 3
        assert result.coverage().total_faults == 3

    def test_shard_rerun_resumes_from_its_own_file(self, rc_circuit,
                                                   tmp_path):
        path = tmp_path / "s0.jsonl"
        first = _run_shard(rc_circuit, 0, 2, path)
        again = _run_shard(rc_circuit, 0, 2, path)
        assert again.checkpoint_skipped == 3
        assert list(map(_semantic, again.records)) == \
            list(map(_semantic, first.records))

    def test_shard_file_refuses_a_different_slice(self, rc_circuit,
                                                  tmp_path):
        """The fingerprint is shared by all shards, so the shard spec in
        the file header must gate resumes: re-running an existing shard
        file under a different slice would silently mix layouts."""
        path = tmp_path / "s0.jsonl"
        _run_shard(rc_circuit, 0, 2, path)
        with pytest.raises(CampaignError, match="shard 0/2.*shard 0/3"):
            _run_shard(rc_circuit, 0, 3, path)
        # An unsharded resume cannot reuse a shard file either ...
        with pytest.raises(CampaignError, match="shard 0/2"):
            FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
                checkpoint=path)
        # ... nor a shard run a plain campaign checkpoint.
        plain = tmp_path / "plain.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=plain)
        with pytest.raises(CampaignError, match="shard 1/2"):
            _run_shard(rc_circuit, 1, 2, plain)

    def test_pooled_shard_matches_serial_shard(self, rc_circuit, tmp_path):
        serial = _run_shard(rc_circuit, 0, 2, tmp_path / "a.jsonl",
                            executor=SerialExecutor())
        pooled = _run_shard(rc_circuit, 0, 2, tmp_path / "b.jsonl",
                            executor=PoolExecutor(2))
        assert list(map(_semantic, pooled.records)) == \
            list(map(_semantic, serial.records))
        assert pooled.executor == "pool"
        assert (pooled.shard_index, pooled.shard_count) == (0, 2)

    @pytest.mark.parametrize("executor", [
        BatchedExecutor(3, early_abort=True), PoolExecutor(2)],
        ids=["batched-early-abort", "pool"])
    def test_every_executor_runs_a_shard(self, rc_circuit, tmp_path,
                                         executor):
        """Executors no longer own slices, so any of them runs a shard,
        and the shards merge to the serial verdicts (early abort leaves
        the verdict fields exact, not the deviation and step counters)."""
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=SerialExecutor())
        paths = _run_shards(rc_circuit, tmp_path, 2, executor=executor)
        merged = merge_shards(rc_circuit, _fault_list(), _settings(), paths,
                              require_complete=True)

        def verdict(record):
            return (record.fault.fault_id, record.status,
                    record.detection_time, record.detected_on)

        assert list(map(verdict, merged.records)) == \
            list(map(verdict, serial.records))

    def test_shard_header_records_slice_identity(self, rc_circuit, tmp_path):
        from repro.anafault.checkpoint import read_header

        [path] = _run_shards(rc_circuit, tmp_path, 1)
        assert "shard_index" not in (read_header(path) or {})
        paths = _run_shards(rc_circuit, tmp_path, 2)
        headers = [read_header(p) for p in paths]
        assert [h["shard_index"] for h in headers] == [0, 1]
        assert [h["shard_count"] for h in headers] == [2, 2]
        assert len({h["fingerprint"] for h in headers}) == 1

    def test_overlapping_shards_refuse_to_merge(self, rc_circuit, tmp_path):
        # Two hosts accidentally running the same shard index: the headers
        # collide before a single record is compared.
        paths = _run_shards(rc_circuit, tmp_path, 2)
        twin = tmp_path / "twin.jsonl"
        _run_shard(rc_circuit, 0, 2, twin)
        with pytest.raises(CampaignError, match="shard index 0"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [*paths, twin])
        # Plain checkpoints declare no slice, so duplicating one falls
        # through to the per-fault-id overlap check.
        plain = tmp_path / "plain.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=plain)
        with pytest.raises(CampaignError, match="overlap.*fault id"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [plain, plain])

    def test_drifted_split_refuses_even_without_id_overlap(self, rc_circuit,
                                                           tmp_path):
        """A 2-way and a 3-way shard may cover disjoint fault ids, leaving
        silent holes instead of an overlap error; the declared shard
        counts in the headers must agree."""
        two_way = _run_shards(rc_circuit, tmp_path, 2)[0]
        three_way = _run_shards(rc_circuit, tmp_path, 3)[1]
        with pytest.raises(CampaignError, match="disagree on the split"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [two_way, three_way])

    def test_same_shard_index_refuses_before_loading_records(self,
                                                             rc_circuit,
                                                             tmp_path):
        paths = _run_shards(rc_circuit, tmp_path, 2)
        with pytest.raises(CampaignError, match="shard index 0"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [paths[0], paths[0]])

    def test_wrong_fingerprint_refuses_to_merge(self, rc_circuit, tmp_path):
        paths = _run_shards(rc_circuit, tmp_path, 2)
        with pytest.raises(CampaignError, match="different campaign"):
            merge_shards(rc_circuit, _fault_list(), _settings(tstop=4e-3),
                         paths)

    def test_missing_shard_leaves_tolerated_holes(self, rc_circuit,
                                                  tmp_path):
        paths = _run_shards(rc_circuit, tmp_path, 2)
        merged = merge_shards(rc_circuit, _fault_list(), _settings(),
                              [paths[0]])
        assert [r is None for r in merged.records] == \
            [False, True, False, True, False]
        # telemetry()/coverage()/reports already tolerate None holes.
        assert merged.telemetry()["faults"] == 3
        assert merged.coverage().total_faults == 3
        from repro.anafault import format_overview
        assert "fault coverage" in format_overview(merged)

    def test_require_complete_names_missing_ids(self, rc_circuit, tmp_path):
        paths = _run_shards(rc_circuit, tmp_path, 2)
        with pytest.raises(CampaignError, match=r"missing 2 fault id\(s\): "
                                                r"\[2, 4\]"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [paths[0]], require_complete=True)

    def test_missing_shard_file_refused(self, rc_circuit, tmp_path):
        with pytest.raises(CampaignError, match="does not exist"):
            merge_shards(rc_circuit, _fault_list(), _settings(),
                         [tmp_path / "never-written.jsonl"])


#: Checkpoint lines no campaign writes ("HEADER" stands for a valid
#: header), each with the part of the error that says what is wrong.
MALFORMED_LINES = {
    "non-object line": (["[1, 2]"], "not a JSON object"),
    "record without fault_id": (
        ["HEADER", '{"kind": "record", "status": "detected"}'],
        "fault_id is None"),
    "non-integer fault_id": (
        ["HEADER", '{"kind": "record", "fault_id": "seven"}'],
        "fault_id is 'seven'"),
    "non-integer shard header": (
        ['{"kind": "header", "version": 1, "shard_index": "zero", '
         '"shard_count": 2}'],
        "shard_index is 'zero'"),
}


class TestMalformedShardInput:
    @pytest.mark.parametrize("entry_point", ["run", "merge"])
    @pytest.mark.parametrize("case", list(MALFORMED_LINES))
    def test_malformed_checkpoint_names_the_file(self, rc_circuit, tmp_path,
                                                 case, entry_point):
        """Every malformed line is a CampaignError naming the file, never
        an AttributeError/KeyError/ValueError from the JSON plumbing."""
        lines, reason = MALFORMED_LINES[case]
        header = json.dumps({
            "kind": "header", "version": 1,
            "fingerprint": campaign_fingerprint(rc_circuit, _fault_list(),
                                                _settings())})
        path = tmp_path / "broken.jsonl"
        path.write_text("".join((header if line == "HEADER" else line) + "\n"
                                for line in lines))
        with pytest.raises(CampaignError, match=reason) as excinfo:
            if entry_point == "run":
                FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
                    checkpoint=path)
            else:
                merge_shards(rc_circuit, _fault_list(), _settings(), [path])
        assert str(path) in str(excinfo.value)


class TestSatelliteFixes:
    def test_record_for_refuses_duplicate_ids(self, rc_circuit):
        faults = FaultList("dupes")
        faults.add(BridgingFault(1, net_a="out", net_b="0"))
        faults.add(BridgingFault(1, net_a="in", net_b="out"))
        result = FaultSimulator(rc_circuit, faults, _settings()).run()
        assert len(result.records) == 2  # the campaign itself still runs
        with pytest.raises(CampaignError, match="fault id 1"):
            result.record_for(1)

    def test_resumed_progress_is_monotone_from_skipped(self, rc_circuit,
                                                       tmp_path):
        path = tmp_path / "campaign.jsonl"
        first_events = []
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path,
            progress_callback=lambda d, t, r: first_events.append((d, t)))
        assert first_events == [(i, 5) for i in range(1, 6)]

        events = []
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path,
            progress_callback=lambda d, t, r: events.append((d, t, r)))
        # Skipped faults report up front, with the reloaded records.
        assert [(d, t) for d, t, _ in events] == [(i, 5) for i in range(1, 6)]
        assert [r.fault.fault_id for _, _, r in events] == [1, 2, 3, 4, 5]
        assert resumed.checkpoint_skipped == 5

    def test_shard_progress_counts_the_slice(self, rc_circuit, tmp_path):
        events = []
        _run_shard(rc_circuit, 0, 2, tmp_path / "s0.jsonl",
                   progress_callback=lambda d, t, r: events.append((d, t)))
        assert events == [(1, 3), (2, 3), (3, 3)]


class TestCommandLine:
    """End-to-end CLI round-trip through real subprocesses."""

    # Fault #4 targets a missing net on purpose (it covers the
    # injection-failure record status), so the campaign must opt out of
    # the CLI's default refusing preflight; "warn" is the neutral
    # fingerprint default and keeps merge/verify identity unchanged.
    SETTINGS_FLAGS = ["--observe", "out", "--amplitude-tolerance", "0.3",
                      "--time-tolerance", "2e-4", "--preflight", "warn"]

    @pytest.fixture()
    def campaign_files(self, rc_circuit, tmp_path):
        netlist = tmp_path / "rc.cir"
        write_netlist_file(rc_circuit, netlist, analyses=[".tran 5e-5 5e-3"])
        faults = tmp_path / "rc.lift"
        _fault_list().dump(faults)
        return netlist, faults

    def _cli(self, *args, expect=0):
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(ROOT / "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        process = subprocess.run(
            [sys.executable, "-m", "repro.anafault", *map(str, args)],
            capture_output=True, text=True, env=env, cwd=ROOT)
        assert process.returncode == expect, (
            f"exit {process.returncode} != {expect}\n"
            f"stdout:\n{process.stdout}\nstderr:\n{process.stderr}")
        return process.stdout

    @staticmethod
    def _records(path) -> dict[int, tuple]:
        entries = [json.loads(line) for line in
                   pathlib.Path(path).read_text().splitlines()]
        return {e["fault_id"]: (e["status"], e["detection_time"],
                                e["detected_on"], e["max_deviation"])
                for e in entries if e["kind"] == "record"}

    def test_shard_merge_round_trip(self, campaign_files, tmp_path,
                                    rc_circuit):
        netlist, faults = campaign_files
        serial = tmp_path / "serial.jsonl"
        merged = tmp_path / "merged.jsonl"
        shards = [tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"]

        out = self._cli("run", netlist, faults, *self.SETTINGS_FLAGS,
                        "--checkpoint", serial)
        assert "AnaFAULT campaign overview" in out
        for index, shard in enumerate(shards):
            out = self._cli("shard", netlist, faults, *self.SETTINGS_FLAGS,
                            "--shard-index", index, "--shard-count", 2,
                            "--out", shard)
            assert f"shard {index}/2" in out
        out = self._cli("merge", netlist, faults, *self.SETTINGS_FLAGS,
                        *shards, "--out", merged, "--require-complete",
                        "--verify", serial)
        assert "all 5 merged record(s) match" in out

        assert self._records(merged) == self._records(serial)
        # The CLI campaign agrees with the in-process API campaign.
        api = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        by_id = {r.fault.fault_id: (r.status, r.detection_time,
                                    r.detected_on, r.max_deviation)
                 for r in api.records}
        assert self._records(merged) == by_id

    def test_fault_file_name_does_not_affect_identity(self, campaign_files,
                                                      tmp_path):
        """Hosts may keep the fault file under any name: campaign identity
        is keyed on the file's content, so a renamed copy still merges."""
        netlist, faults = campaign_files
        shard = tmp_path / "s0.jsonl"
        renamed = tmp_path / "renamed-elsewhere.lift"
        renamed.write_text(faults.read_text())
        self._cli("shard", netlist, faults, *self.SETTINGS_FLAGS,
                  "--shard-index", 0, "--shard-count", 2, "--out", shard)
        out = self._cli("merge", netlist, renamed, *self.SETTINGS_FLAGS,
                        shard)
        assert "AnaFAULT campaign overview" in out

    def test_merge_out_refuses_to_overwrite_an_input_shard(
            self, campaign_files, tmp_path):
        netlist, faults = campaign_files
        shard = tmp_path / "s0.jsonl"
        self._cli("shard", netlist, faults, *self.SETTINGS_FLAGS,
                  "--shard-index", 0, "--shard-count", 2, "--out", shard)
        before = shard.read_text()
        self._cli("merge", netlist, faults, *self.SETTINGS_FLAGS, shard,
                  "--out", shard, expect=2)
        assert shard.read_text() == before  # the shard file is untouched

    def test_invalid_settings_exit_with_input_error_code(self,
                                                         campaign_files):
        """Bad flag values are input errors (exit 2, clean message) —
        never exit 1, which is reserved for failed verification."""
        netlist, faults = campaign_files
        self._cli("run", netlist, faults, "--amplitude-tolerance", "-1",
                  expect=2)

    def test_merge_refuses_drifted_settings(self, campaign_files, tmp_path):
        netlist, faults = campaign_files
        shard = tmp_path / "s0.jsonl"
        self._cli("shard", netlist, faults, *self.SETTINGS_FLAGS,
                  "--shard-index", 0, "--shard-count", 2, "--out", shard)
        # A host that drifted on a verdict-relevant setting cannot merge.
        self._cli("merge", netlist, faults, "--observe", "out",
                  "--amplitude-tolerance", "0.5", "--time-tolerance", "2e-4",
                  shard, expect=2)

    def test_missing_shard_reported_and_verify_detects_mismatch(
            self, campaign_files, tmp_path):
        netlist, faults = campaign_files
        serial = tmp_path / "serial.jsonl"
        shard = tmp_path / "s0.jsonl"
        self._cli("run", netlist, faults, *self.SETTINGS_FLAGS,
                  "--checkpoint", serial)
        self._cli("shard", netlist, faults, *self.SETTINGS_FLAGS,
                  "--shard-index", 0, "--shard-count", 2, "--out", shard)
        out = self._cli("merge", netlist, faults, *self.SETTINGS_FLAGS,
                        shard)
        assert "hole(s) for fault id(s) [2, 4]" in out
        # An incomplete merge cannot verify clean against the full serial
        # run: the reference records with no merged counterpart count as
        # mismatches (verification is two-sided).
        out = self._cli("merge", netlist, faults, *self.SETTINGS_FLAGS,
                        shard, "--verify", serial, expect=1)
        assert "has no merged record" in out
        # A genuinely different record is a mismatch too.
        tampered = tmp_path / "tampered.jsonl"
        lines = serial.read_text().splitlines()
        swapped = [line.replace('"status": "detected"',
                                '"status": "undetected"')
                   for line in lines]
        tampered.write_text("\n".join(swapped) + "\n")
        self._cli("merge", netlist, faults, *self.SETTINGS_FLAGS, shard,
                  "--verify", tampered, expect=1)