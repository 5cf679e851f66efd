"""Tests for the campaign service (scheduler daemon + workers + remote).

Covers the layers of ``docs/service.md`` bottom-up:

* the **lease state machine** in isolation — unit tests for cost-balanced
  slice selection, expiry/retry attempt accounting, duplicate-completion
  dedup and graceful release, plus a hypothesis property test driving
  arbitrary interleavings of lease/expire/re-lease/complete/fail/retry
  events and asserting every fault terminates completed-exactly-once or
  exhausted-with-a-failure-record, with no record ever emitted twice
  (these tests are pure Python: no sockets, no scipy, no simulation —
  CI runs them on the no-scipy leg),
* the **wire format** — settings and fault-list round trips preserve the
  campaign fingerprint bit for bit,
* the **daemon protocol** — ``CampaignService.handle`` driven with an
  injectable clock (no sleeps): submit idempotence, lease/complete/fail,
  lazy expiry, bounded-retry exhaustion records, daemon-restart resume
  from the spool, cancel,
* the **socket layer and remote executor** — a served campaign through
  ``FaultSimulator.run(executor=RemoteExecutor(addr))`` with an in-process
  worker thread, record-identical to the serial run, including the
  retry-telemetry satellite (``attempt`` must not double-count kernel
  totals).

The multi-process chaos harness (SIGKILL mid-lease) lives in
``tests/test_service_chaos.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import threading

import pytest
from hypothesis import given, settings as h_settings, strategies as st

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    LeaseMachine,
    RemoteExecutor,
    ToleranceSettings,
    WorkerClient,
    serve,
    settings_from_wire,
    settings_to_wire,
)
from repro.anafault.checkpoint import campaign_fingerprint
from repro.anafault.service import (
    COMPLETED,
    EXHAUSTED,
    LEASED,
    PENDING,
    CampaignService,
)
from repro.anafault.simulator import FaultSimulationRecord
from repro.anafault.wire import parse_address
from repro.errors import CampaignError
from repro.lift import BridgingFault, FaultList, OpenFault, ParametricFault
from repro.spice import TransientOptions
from repro.spice.parser import parse_netlist
from repro.spice.writer import write_netlist

#: A spool (descriptor and queue file) of the ``_settings(timestep=
#: TransientOptions(mode="adaptive"))`` campaign with faults 1 and 2
#: completed, written before seven ``TransientOptions`` knobs were
#: retired: its descriptor's settings wire dict carries all fifteen
#: timestep keys.
EARLIER_SPOOL = pathlib.Path(__file__).parent / "data" / "rc_adaptive_spool"
EARLIER_JOB = "05822ba0b2c1e6ae2e8b0ed229b17d99"


def _earlier_descriptor() -> dict:
    return json.loads((EARLIER_SPOOL / f"{EARLIER_JOB}.job.json").read_text())


# ---------------------------------------------------------------------------
# Shared campaign inputs
# ---------------------------------------------------------------------------

def _fault_list(count: int = 4) -> FaultList:
    faults = FaultList("service test faults")
    build = [
        BridgingFault(1, probability=1e-7, net_a="out", net_b="0"),
        OpenFault(2, probability=1e-8, device="R1", terminal="pos"),
        ParametricFault(3, probability=1e-9, device="R1",
                        parameter="value", relative_change=0.01),
        BridgingFault(4, probability=1e-9, net_a="in", net_b="out"),
        BridgingFault(5, probability=2e-9, net_a="out", net_b="in"),
        ParametricFault(6, probability=1e-9, device="C1",
                        parameter="value", relative_change=3.0),
    ]
    for fault in build[:count]:
        faults.add(fault)
    return faults


def _settings(**overrides) -> CampaignSettings:
    base = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                observation_nodes=("out",),
                tolerances=ToleranceSettings(0.3, 2e-4))
    base.update(overrides)
    return CampaignSettings(**base)


def _submit_payload(rc_circuit, count: int = 4, **overrides) -> dict:
    return {"netlist": write_netlist(rc_circuit),
            "faults": _fault_list(count).dumps(),
            "settings": settings_to_wire(_settings(**overrides))}


def _record_payload(fault_id: int, seconds: float = 1.0, **overrides) -> dict:
    payload = {"status": "undetected", "detection_time": None,
               "detected_on": "", "max_deviation": 0.0,
               "elapsed_seconds": seconds, "message": "",
               "newton_iterations": 10, "steps_accepted": 100,
               "steps_rejected": 0, "trace_bytes": 0, "attempt": 1}
    payload.update(overrides)
    return payload


class FakeClock:
    """Injectable monotonic clock for the daemon (no sleeps in tests)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Lease machine: units
# ---------------------------------------------------------------------------

class TestLeaseMachine:
    def test_lease_marks_faults_leased(self):
        machine = LeaseMachine([1, 2, 3], lease_size=2)
        granted = machine.lease("w1", now=0.0)
        assert granted and len(granted) <= 2
        for fault_id in granted:
            assert machine.state[fault_id] == LEASED
        assert machine.leases_granted == 1

    def test_no_fault_leased_twice_concurrently(self):
        machine = LeaseMachine([1, 2, 3, 4], lease_size=2)
        first = machine.lease("w1", now=0.0)
        second = machine.lease("w2", now=0.0)
        assert not set(first) & set(second)

    def test_cost_balancing_expensive_fault_travels_alone(self):
        machine = LeaseMachine([1, 2, 3, 4, 5], lease_size=4)
        for fault_id, cost in {1: 100.0, 2: 1.0, 3: 1.0, 4: 1.0,
                               5: 1.0}.items():
            machine.observe_cost(fault_id, cost)
        first = machine.lease("w1", now=0.0)
        assert first == [1]  # most expensive first, alone over budget
        second = machine.lease("w2", now=0.0)
        assert 1 not in second and len(second) > 1  # cheap faults batch

    def test_observed_costs_feed_the_estimator(self):
        machine = LeaseMachine([1, 2, 3])
        assert machine.estimated_cost(1) == 1.0  # no prior: unit cost
        machine.observe_cost(1, 5.0)
        assert machine.estimated_cost(1) == 5.0
        assert machine.estimated_cost(2) == 5.0  # running mean fallback

    def test_expiry_requeues_and_consumes_an_attempt(self):
        machine = LeaseMachine([1], max_attempts=2, lease_ttl=10.0)
        machine.lease("w1", now=0.0)
        requeued, exhausted = machine.expire(now=11.0)
        assert requeued == [1] and exhausted == []
        assert machine.state[1] == PENDING
        assert machine.failures[1] == 1
        assert machine.attempt_number(1) == 2

    def test_expiry_exhausts_after_bounded_attempts(self):
        machine = LeaseMachine([1], max_attempts=2, lease_ttl=10.0)
        for round_start in (0.0, 20.0):
            machine.lease("w1", now=round_start)
            requeued, exhausted = machine.expire(now=round_start + 11.0)
        assert exhausted == [1]
        assert machine.state[1] == EXHAUSTED
        assert machine.done
        assert 1 in machine.messages  # failure-record material survives

    def test_unexpired_lease_is_left_alone(self):
        machine = LeaseMachine([1], lease_ttl=10.0)
        machine.lease("w1", now=0.0)
        assert machine.expire(now=5.0) == ([], [])
        assert machine.state[1] == LEASED

    def test_touch_extends_the_workers_leases(self):
        machine = LeaseMachine([1], lease_ttl=10.0)
        machine.lease("w1", now=0.0)
        machine.touch("w1", now=8.0)
        assert machine.expire(now=15.0) == ([], [])  # deadline moved to 18
        requeued, _ = machine.expire(now=19.0)
        assert requeued == [1]

    def test_duplicate_completion_is_deduped(self):
        machine = LeaseMachine([1, 2])
        machine.lease("w1", now=0.0)
        assert machine.complete(1, "w1", now=0.1) is True
        assert machine.complete(1, "w2", now=0.2) is False
        assert machine.duplicates == 1
        assert machine.completions == 1

    def test_late_completion_after_expiry_wins_once(self):
        # w1's lease expires, the fault is re-leased to w2, then BOTH
        # answer: the first completion is accepted, the other deduped.
        machine = LeaseMachine([1], max_attempts=3, lease_ttl=10.0)
        machine.lease("w1", now=0.0)
        machine.expire(now=11.0)
        machine.lease("w2", now=11.0)
        assert machine.complete(1, "w1", now=12.0) is True  # late but first
        assert machine.complete(1, "w2", now=13.0) is False
        assert machine.state[1] == COMPLETED

    def test_fail_retries_then_exhausts(self):
        machine = LeaseMachine([1], max_attempts=2)
        machine.lease("w1", now=0.0)
        assert machine.fail(1, "w1", now=0.1, message="boom") == "retry"
        machine.lease("w1", now=0.2)
        assert machine.fail(1, "w1", now=0.3, message="boom") == "exhausted"
        assert machine.state[1] == EXHAUSTED
        assert machine.fail(1, "w1", now=0.4) == "stale"

    def test_release_requeues_without_consuming_attempts(self):
        machine = LeaseMachine([1, 2], lease_size=2)
        granted = machine.lease("w1", now=0.0)
        assert machine.release(granted, "w1") == len(granted)
        assert all(machine.state[f] == PENDING for f in granted)
        assert all(machine.failures[f] == 0 for f in granted)

    def test_release_ignores_other_workers_leases(self):
        machine = LeaseMachine([1], lease_size=1)
        machine.lease("w1", now=0.0)
        assert machine.release([1], "w2") == 0
        assert machine.state[1] == LEASED

    def test_duplicate_ids_are_refused(self):
        with pytest.raises(CampaignError, match="unique ids"):
            LeaseMachine([1, 1, 2])

    def test_invalid_parameters_are_refused(self):
        with pytest.raises(CampaignError):
            LeaseMachine([1], max_attempts=0)
        with pytest.raises(CampaignError):
            LeaseMachine([1], lease_ttl=0.0)
        with pytest.raises(CampaignError):
            LeaseMachine([1], lease_size=0)

    @pytest.mark.parametrize("knob, value", [
        ("max_attempts", 1.5), ("max_attempts", True), ("max_attempts", None),
        ("lease_size", False), ("lease_size", "2"), ("lease_size", 2.0),
        ("lease_ttl", True), ("lease_ttl", "10"), ("lease_ttl", None)])
    def test_knobs_are_checked_as_given_never_coerced(self, knob, value):
        with pytest.raises(CampaignError, match=knob):
            LeaseMachine([1], **{knob: value})

    @pytest.mark.parametrize("method", ["complete", "fail", "release",
                                        "attempt_number"])
    @pytest.mark.parametrize("fault_id", [1.5, True, 1.0, "1", None])
    def test_non_integer_ids_are_refused(self, method, fault_id):
        """``complete(1.5, ...)`` used to complete fault 1 and
        ``fail(True, ...)`` to burn one of its attempts."""
        machine = LeaseMachine([1, 2], max_attempts=2)
        machine.lease("w1", now=0.0)
        calls = {"complete": lambda: machine.complete(fault_id, "w1", 1.0),
                 "fail": lambda: machine.fail(fault_id, "w1", 1.0),
                 "release": lambda: machine.release([fault_id], "w1"),
                 "attempt_number": lambda: machine.attempt_number(fault_id)}
        with pytest.raises(CampaignError, match=re.escape(repr(fault_id))):
            calls[method]()
        assert machine.state == {1: LEASED, 2: LEASED}
        assert machine.failures == {1: 0, 2: 0}

    @pytest.mark.parametrize("fault_id", [1.5, True, "3"])
    def test_queue_ids_are_not_coerced(self, fault_id):
        """``LeaseMachine([1.5, 3])`` used to queue faults 1 and 3."""
        with pytest.raises(CampaignError, match=re.escape(repr(fault_id))):
            LeaseMachine([fault_id, 7])

    def test_attempt_number_of_an_unknown_id_is_refused(self):
        with pytest.raises(CampaignError, match="unknown fault id 7"):
            LeaseMachine([1]).attempt_number(7)


# ---------------------------------------------------------------------------
# Lease machine: property test (arbitrary hostile interleavings)
# ---------------------------------------------------------------------------

class TestLeaseMachineProperties:
    @given(st.data())
    @h_settings(max_examples=150)
    def test_every_fault_terminates_exactly_once(self, data):
        """Under arbitrary interleavings of lease / expire / re-lease /
        complete / fail / release events, every fault ends completed
        (emitted exactly once) or exhausted (all attempts consumed, with
        failure-record material), and no completion is ever accepted
        twice."""
        fault_count = data.draw(st.integers(1, 6), label="faults")
        max_attempts = data.draw(st.integers(1, 3), label="max_attempts")
        machine = LeaseMachine(
            list(range(1, fault_count + 1)), max_attempts=max_attempts,
            lease_ttl=1.0,
            lease_size=data.draw(st.integers(1, 4), label="lease_size"))
        workers = ("w1", "w2", "w3")
        now = 0.0
        emitted: list[int] = []

        def check_invariants() -> None:
            for fault_id, state in machine.state.items():
                # the lease table and the state tags never disagree
                assert (state == LEASED) == (fault_id in machine.leases)
                # bounded attempts, always
                assert machine.failures[fault_id] <= max_attempts
                if state == EXHAUSTED:
                    assert machine.failures[fault_id] == max_attempts

        for _ in range(data.draw(st.integers(0, 30), label="steps")):
            if machine.done:
                break
            op = data.draw(st.sampled_from(
                ["lease", "expire", "complete", "fail", "release"]),
                label="op")
            worker = data.draw(st.sampled_from(workers), label="worker")
            now += data.draw(st.floats(0.0, 2.0, allow_nan=False),
                             label="dt")
            if op == "lease":
                granted = machine.lease(worker, now)
                assert len(set(granted)) == len(granted)
            elif op == "expire":
                machine.expire(now)
            elif op == "complete":
                fault_id = data.draw(st.integers(1, fault_count),
                                     label="fid")
                if machine.complete(fault_id, worker, now):
                    emitted.append(fault_id)
            elif op == "fail":
                fault_id = data.draw(st.integers(1, fault_count),
                                     label="fid")
                machine.fail(fault_id, worker, now, message="chaos")
            elif op == "release":
                machine.release(list(machine.state), worker)
            check_invariants()

        # No completion was ever accepted twice, at any point.
        assert len(emitted) == len(set(emitted))

        # Drive the machine to termination with an honest worker: bounded
        # attempts guarantee this loop ends (each expire/fail consumes an
        # attempt, completes are terminal).
        rounds = 0
        while not machine.done:
            rounds += 1
            assert rounds < 10 * fault_count * max_attempts + 10
            now += 2.0  # beyond lease_ttl: stale leases expire
            machine.expire(now)
            for fault_id in machine.lease("finisher", now):
                if machine.complete(fault_id, "finisher", now):
                    emitted.append(fault_id)
            check_invariants()

        assert len(emitted) == len(set(emitted))
        for fault_id, state in machine.state.items():
            assert state in (COMPLETED, EXHAUSTED)
            if state == COMPLETED:
                assert emitted.count(fault_id) == 1
            else:
                assert machine.failures[fault_id] == max_attempts
                assert fault_id in machine.messages
        counts = machine.counts()
        assert counts["completed"] == len(set(emitted))
        assert counts["completed"] + counts["exhausted"] == fault_count


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

class TestWireFormat:
    def test_settings_round_trip_is_exact(self):
        settings = _settings(count_failed_as_detected=False,
                             preflight="off")
        rebuilt = settings_from_wire(
            json.loads(json.dumps(settings_to_wire(settings))))
        assert rebuilt == settings

    def test_fault_list_round_trip_is_byte_faithful(self):
        faults = _fault_list(4)
        faults.metadata["source"] = "schematic"
        text = faults.dumps()
        assert FaultList.loads(text).dumps() == text

    def test_fingerprint_survives_the_wire(self, rc_circuit):
        settings = _settings()
        faults = _fault_list(3)
        local = campaign_fingerprint(rc_circuit, faults, settings)
        wire = {"netlist": write_netlist(rc_circuit),
                "faults": faults.dumps(),
                "settings": json.loads(json.dumps(settings_to_wire(settings)))}
        from repro.spice.parser import parse_netlist

        remote = campaign_fingerprint(
            parse_netlist(wire["netlist"]).circuit,
            FaultList.loads(wire["faults"]),
            settings_from_wire(wire["settings"]))
        assert remote == local

    def test_unknown_settings_field_is_rejected(self):
        wire = settings_to_wire(_settings())
        wire["from_the_future"] = 1
        with pytest.raises(CampaignError, match="unknown field"):
            settings_from_wire(wire)

    @pytest.mark.parametrize("retired", [
        {"use_shared_memory": False}, {"tail_downsample": 10},
        {"use_shared_memory": "yes", "tail_downsample": [1.5]}])
    def test_retired_settings_fields_are_dropped(self, retired):
        """Spool descriptors of earlier versions persist two settings
        that no longer exist; any value of them loads to the same
        settings, while a nested key of the same name is still refused."""
        wire = settings_to_wire(_settings())
        assert settings_from_wire({**wire, **retired}) == _settings()
        wire["tolerances"] = {**wire["tolerances"], **retired}
        with pytest.raises(CampaignError, match="unknown field"):
            settings_from_wire(wire)

    def test_an_earlier_wire_dict_rebuilds_settings_and_fingerprint(self):
        payload = _earlier_descriptor()["payload"]
        assert "quantize_steps" in payload["settings"]["timestep"]
        settings = settings_from_wire(payload["settings"])
        assert settings == _settings(
            timestep=TransientOptions(mode="adaptive"))
        assert campaign_fingerprint(
            parse_netlist(payload["netlist"]).circuit,
            FaultList.loads(payload["faults"]), settings) == EARLIER_JOB

    @pytest.mark.parametrize("key, value", [
        ("quantize_steps", False), ("interpolate_prints", 1),
        ("predictor_guess", None), ("dt_grow", 3.0), ("dt_shrink", "0.1"),
        ("safety", 1.0), ("solver_cache_size", 16.0)])
    def test_a_retired_key_off_its_frozen_value_is_refused(self, key,
                                                           value):
        wire = _earlier_descriptor()["payload"]["settings"]
        wire["timestep"][key] = value
        with pytest.raises(CampaignError,
                           match=rf"'timestep\.{key}' is retired"):
            settings_from_wire(wire)

    @pytest.mark.parametrize("key", [
        "dt_grow", "dt_shrink", "safety", "interpolate_prints",
        "predictor_guess", "quantize_steps", "solver_cache_size"])
    def test_a_retired_key_is_known_only_where_it_lived(self, key):
        """Each retired key is dropped on its own at its frozen value, and
        is an unknown field in any other settings class."""
        earlier = _earlier_descriptor()["payload"]["settings"]["timestep"]
        wire = settings_to_wire(_settings())
        wire["timestep"][key] = earlier[key]
        assert settings_from_wire(wire) == _settings()
        wire["tolerances"][key] = earlier[key]
        with pytest.raises(CampaignError, match="unknown field"):
            settings_from_wire(wire)

    @pytest.mark.parametrize("payload, named", [
        (None, "payload must be a JSON object, got NoneType"),
        ([], "payload must be a JSON object, got list"),
        ("tstop=1", "payload must be a JSON object, got str"),
        ({"tolerances": 3}, "field 'tolerances' must be a JSON object"),
        ({"tolerances": {"amp": 2.0}},
         r"unknown field\(s\) \['tolerances.amp'\]"),
        ({"tstop": "4u"}, "field 'tstop' must be a number"),
        ({"tstop": None}, "field 'tstop' must be a number"),
        ({"use_ic": 1}, "field 'use_ic' must be a boolean"),
        ({"simulator_options": {"itl4": 1.5}},
         "field 'simulator_options.itl4' must be an integer"),
        ({"simulator_options": {"itl4": True}},
         "field 'simulator_options.itl4' must be an integer"),
        ({"observation_nodes": "11"},
         "field 'observation_nodes' must be a list of strings"),
        ({"observation_nodes": [11]},
         "field 'observation_nodes' must be a list of strings"),
        ({"initial_conditions": []},
         "field 'initial_conditions' must be a JSON object"),
        ({"solver_backend": 0}, "field 'solver_backend' must be a string"),
        ({"timestep": {"dt_min": "1n"}},
         "field 'timestep.dt_min' must be a number"),
        ({"simulator_options": {"itl4": 0}},
         "field 'simulator_options': SimulationOptions.itl4"),
        ({"fault_model": {"model": "glue"}},
         "field 'fault_model': unknown fault model"),
        ({"tolerances": {"amplitude": -1.0}},
         "field 'tolerances': tolerances must be non-negative"),
    ])
    def test_malformed_settings_raise_a_campaign_error_naming_the_field(
            self, payload, named):
        with pytest.raises(CampaignError, match=named):
            settings_from_wire(payload)

    def test_optional_and_integral_settings_values_are_accepted(self):
        settings = settings_from_wire({
            "tstop": 4, "solver_backend": None,
            "timestep": {"dt_min": None, "dt_max": 1e-9}})
        assert settings.tstop == 4 and settings.solver_backend is None
        assert settings.timestep.dt_max == 1e-9

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7901") == ("127.0.0.1", 7901)
        assert parse_address(":7901") == ("127.0.0.1", 7901)
        with pytest.raises(CampaignError, match="bad service address"):
            parse_address("no-port")


# ---------------------------------------------------------------------------
# Daemon protocol (no sockets, injectable clock)
# ---------------------------------------------------------------------------

class TestCampaignServiceProtocol:
    def _service(self, tmp_path, **kwargs) -> tuple[CampaignService,
                                                    FakeClock]:
        clock = FakeClock()
        kwargs.setdefault("lease_ttl", 10.0)
        service = CampaignService(tmp_path / "spool", clock=clock, **kwargs)
        return service, clock

    def test_submit_returns_the_fingerprint(self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path)
        payload = _submit_payload(rc_circuit)
        status = service.handle({"op": "submit", **payload})
        assert status["job"] == campaign_fingerprint(
            rc_circuit, _fault_list(), _settings())
        assert status["total"] == 4 and status["pending"] == 4
        assert status["attached"] is False

    def test_submit_is_idempotent(self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path)
        payload = _submit_payload(rc_circuit)
        first = service.handle({"op": "submit", **payload})
        again = service.handle({"op": "submit", **payload})
        assert again["job"] == first["job"]
        assert again["attached"] is True
        assert len(service.jobs) == 1

    def test_unknown_op_and_unknown_job_become_errors(self, tmp_path):
        service, _ = self._service(tmp_path)
        assert "error" in service.handle({"op": "frobnicate"})
        assert "error" in service.handle({"op": "status", "job": "nope"})
        assert "error" in service.handle([1, 2, 3])

    @pytest.mark.parametrize("op, field, value", [
        ("complete", "fault_id", "x"), ("complete", "fault_id", None),
        ("complete", "fault_id", 1.5), ("complete", "fault_id", True),
        ("fail", "fault_id", "x"), ("fail", "fault_id", None),
        ("fail", "fault_id", 1.5), ("fail", "fault_id", True),
        ("release", "fault_ids", 5), ("release", "fault_ids", None),
        ("release", "fault_ids", [1.5]), ("release", "fault_ids", [True]),
    ])
    def test_non_integer_fault_ids_are_errors(self, rc_circuit, tmp_path,
                                              op, field, value):
        """A malformed id is answered with an error naming the op and the
        field, never raised out of ``handle`` (the TCP handler would drop
        the connection) nor read as fault 1."""
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        response = service.handle({"op": op, "job": job, "worker": "w1",
                                   "record": _record_payload(1),
                                   field: value})
        assert set(response) == {"error"}
        assert op in response["error"] and field in response["error"]
        status = service.handle({"op": "status", "job": job})
        assert status["completed"] == 0 and status["retries"] == 0
        assert status["leased"] > 0

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), -1.0])
    def test_submit_refuses_a_lease_ttl_that_cannot_time(self, rc_circuit,
                                                         tmp_path, ttl):
        """A NaN TTL used to expire every lease at the next request, so
        the job finished with every fault exhausted and none simulated."""
        service, _ = self._service(tmp_path)
        response = service.handle({"op": "submit", "lease_ttl": ttl,
                                   **_submit_payload(rc_circuit)})
        assert "lease_ttl" in response["error"]
        assert not service.jobs

    @pytest.mark.parametrize("knob, value", [
        ("lease_ttl", 0), ("lease_ttl", ""), ("lease_ttl", False),
        ("lease_ttl", None), ("max_attempts", 0), ("max_attempts", 1.5),
        ("max_attempts", None), ("lease_size", False), ("lease_size", 0),
        ("lease_size", "")])
    def test_submit_refuses_a_present_knob_that_breaks_the_rules(
            self, rc_circuit, tmp_path, knob, value):
        """Only an absent knob takes the daemon default: a present 0, ""
        or false used to become the default silently, and 1.5 attempts
        became 1."""
        service, _ = self._service(tmp_path)
        response = service.handle({"op": "submit", knob: value,
                                   **_submit_payload(rc_circuit)})
        assert knob in response["error"]
        assert not service.jobs

    def test_submit_takes_present_knobs_and_defaults_absent_ones(
            self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path, max_attempts=5, lease_size=3)
        status = service.handle({"op": "submit", "lease_ttl": 7,
                                 "max_attempts": 1,
                                 **_submit_payload(rc_circuit)})
        machine = service.jobs[status["job"]].machine
        assert (machine.lease_ttl, machine.max_attempts,
                machine.lease_size) == (7.0, 1, 3)

    def test_malformed_record_payload_is_an_error(self, rc_circuit,
                                                  tmp_path):
        """The record is checked before the lease machine counts it: a
        refused completion leaves the fault leased, not completed."""
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        response = service.handle({
            "op": "complete", "job": job, "worker": "w1", "fault_id": 1,
            "record": _record_payload(1, seconds="x")})
        assert "elapsed_seconds" in response["error"]
        assert service.handle({"op": "status",
                               "job": job})["completed"] == 0

    def test_bad_submit_payload_is_an_error(self, tmp_path):
        service, _ = self._service(tmp_path)
        response = service.handle({"op": "submit", "netlist": "not spice",
                                   "faults": "", "settings": {}})
        assert "error" in response

    def test_lease_complete_lifecycle(self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        done = False
        while not done:
            grant = service.handle({"op": "lease", "worker": "w1"})
            if grant.get("idle"):
                done = grant["done"]
                continue
            for entry in grant["faults"]:
                response = service.handle({
                    "op": "complete", "job": job, "worker": "w1",
                    "fault_id": entry["id"],
                    "record": _record_payload(entry["id"])})
                assert response["accepted"] is True
                done = response["done"]
        status = service.handle({"op": "status", "job": job})
        assert status["state"] == "done"
        assert status["completed"] == 4 and status["pending"] == 0
        assert status["workers"]["w1"]["completed"] == 4
        results = service.handle({"op": "results", "job": job})
        assert results["done"] is True
        assert sorted(int(k) for k in results["records"]) == [1, 2, 3, 4]

    def test_duplicate_completion_is_deduped_and_persisted_once(
            self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        first = service.handle({"op": "complete", "job": job,
                                "worker": "w1", "fault_id": 1,
                                "record": _record_payload(1)})
        second = service.handle({"op": "complete", "job": job,
                                 "worker": "w2", "fault_id": 1,
                                 "record": _record_payload(1)})
        assert first["accepted"] and not first["duplicate"]
        assert second["duplicate"] and not second["accepted"]
        queue_lines = [json.loads(line) for line in
                       (tmp_path / "spool" / f"{job}.jsonl")
                       .read_text().splitlines()]
        records = [e for e in queue_lines if e.get("kind") == "record"]
        assert [e["fault_id"] for e in records] == [1]

    def test_lazy_expiry_requeues_on_any_request(self, rc_circuit,
                                                 tmp_path):
        service, clock = self._service(tmp_path, lease_ttl=5.0)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        grant = service.handle({"op": "lease", "worker": "dying"})
        leased = [entry["id"] for entry in grant["faults"]]
        clock.advance(6.0)  # the worker never speaks again
        status = service.handle({"op": "status", "job": job})
        assert status["leases_expired"] == len(leased)
        assert status["pending"] == 4 and status["leased"] == 0
        regrant = service.handle({"op": "lease", "worker": "healthy"})
        regranted = {entry["id"]: entry["attempt"]
                     for entry in regrant["faults"]}
        assert all(regranted[fault_id] == 2 for fault_id in regranted
                   if fault_id in leased)

    def test_bounded_retries_synthesise_an_exhaustion_record(
            self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path, max_attempts=2)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        for attempt in range(2):
            service.handle({"op": "lease", "worker": "w1"})
            response = service.handle({"op": "fail", "job": job,
                                       "worker": "w1", "fault_id": 1,
                                       "message": "kernel panic"})
        assert response["outcome"] == "exhausted"
        results = service.handle({"op": "results", "job": job})
        record = results["records"]["1"]
        # count_failed_as_detected=True (the default) classifies a fault
        # whose simulation cannot be completed as detected — the
        # exhaustion record mirrors the serial ConvergenceError path.
        assert record["status"] == "detected"
        assert "kernel panic" in record["message"]
        assert record["attempt"] == 2

    def test_exhaustion_record_honours_count_failed_as_detected(
            self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path, max_attempts=1)
        payload = _submit_payload(rc_circuit,
                                  count_failed_as_detected=False)
        job = service.handle({"op": "submit", **payload})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        service.handle({"op": "fail", "job": job, "worker": "w1",
                        "fault_id": 1, "message": "boom"})
        record = service.handle({"op": "results",
                                 "job": job})["records"]["1"]
        assert record["status"] == "sim_failed"

    def test_release_returns_faults_without_burning_attempts(
            self, rc_circuit, tmp_path):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        grant = service.handle({"op": "lease", "worker": "w1"})
        ids = [entry["id"] for entry in grant["faults"]]
        response = service.handle({"op": "release", "job": job,
                                   "worker": "w1", "fault_ids": ids})
        assert response["released"] == len(ids)
        regrant = service.handle({"op": "lease", "worker": "w2"})
        assert all(entry["attempt"] == 1 for entry in regrant["faults"])

    def test_daemon_restart_resumes_from_the_spool(self, rc_circuit,
                                                   tmp_path):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        service.handle({"op": "complete", "job": job, "worker": "w1",
                        "fault_id": 1, "record": _record_payload(1, 7.5)})
        service.close()

        restarted = CampaignService(tmp_path / "spool", clock=FakeClock())
        assert list(restarted.jobs) == [job]
        status = restarted.handle({"op": "status", "job": job})
        assert status["completed"] == 1 and status["resumed"] == 1
        assert status["pending"] == 3 and status["leased"] == 0
        # the completed fault's measured cost survived into the balancer
        restored = restarted.jobs[job]
        assert restored.machine.estimated_cost(1) == 7.5
        restarted.close()

    def test_restart_drops_retired_settings_from_the_descriptor(
            self, rc_circuit, tmp_path):
        """Descriptors written before the nominal store and the reporting
        tail were retired carry both settings keys; the daemon still
        restarts on them and serves the same job."""
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.close()
        descriptor_path = tmp_path / "spool" / f"{job}.job.json"
        descriptor = json.loads(descriptor_path.read_text())
        descriptor["payload"]["settings"].update(
            use_shared_memory=True, tail_downsample=10)
        descriptor_path.write_text(json.dumps(descriptor))

        restarted = CampaignService(tmp_path / "spool", clock=FakeClock())
        assert list(restarted.jobs) == [job]
        assert restarted.handle({"op": "status", "job": job})["total"] == 4
        restarted.close()

    def test_an_earlier_spool_reloads_under_its_job_id(self, tmp_path):
        """A spool written before the seven timestep knobs were retired
        restarts under the same job id and keeps its records."""
        spool = tmp_path / "spool"
        shutil.copytree(EARLIER_SPOOL, spool)
        queue = spool / f"{EARLIER_JOB}.jsonl"
        before = queue.read_bytes()
        restarted = CampaignService(spool, clock=FakeClock())
        assert list(restarted.jobs) == [EARLIER_JOB]
        status = restarted.handle({"op": "status", "job": EARLIER_JOB})
        assert (status["completed"], status["resumed"]) == (2, 2)
        assert status["pending"] == 2
        results = restarted.handle({"op": "results", "job": EARLIER_JOB})
        assert sorted(results["records"]) == ["1", "2"]
        restarted.close()
        assert queue.read_bytes() == before

    @pytest.mark.parametrize("damage, named", [
        (lambda text: text[:len(text) // 2], "JSONDecodeError"),
        (lambda text: json.dumps({"fingerprint": "abc"}),
         "payload is NoneType"),
        (lambda text: json.dumps({"payload": [1, 2]}), "payload is list"),
        (lambda text: json.dumps([1, 2]), "not a JSON object"),
        (lambda text: json.dumps({"payload": {"faults": ""}}),
         "KeyError: 'settings'"),
        (lambda text: json.dumps({**json.loads(text), "max_attempts": 1.5}),
         "max_attempts must be an integer >= 1, got 1.5"),
    ], ids=["torn", "no-payload", "list-payload", "list-descriptor",
            "missing-key", "fractional-attempts"])
    def test_damaged_descriptor_names_the_file(self, rc_circuit, tmp_path,
                                               damage, named):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.close()
        descriptor_path = tmp_path / "spool" / f"{job}.job.json"
        descriptor_path.write_text(damage(descriptor_path.read_text()))
        with pytest.raises(CampaignError) as excinfo:
            CampaignService(tmp_path / "spool", clock=FakeClock())
        assert str(descriptor_path) in str(excinfo.value)
        assert named in str(excinfo.value)

    def test_cancel_stops_serving_but_keeps_results(self, rc_circuit,
                                                    tmp_path):
        service, _ = self._service(tmp_path)
        job = service.handle({"op": "submit",
                              **_submit_payload(rc_circuit)})["job"]
        service.handle({"op": "lease", "worker": "w1"})
        service.handle({"op": "complete", "job": job, "worker": "w1",
                        "fault_id": 1, "record": _record_payload(1)})
        assert service.handle({"op": "cancel",
                               "job": job})["state"] == "cancelled"
        grant = service.handle({"op": "lease", "worker": "w1"})
        assert grant["idle"] and grant["done"]
        results = service.handle({"op": "results", "job": job})
        assert results["state"] == "cancelled"
        assert list(results["records"]) == ["1"]

    def test_idle_lease_reports_done_only_with_jobs(self, rc_circuit,
                                                    tmp_path):
        service, _ = self._service(tmp_path)
        grant = service.handle({"op": "lease", "worker": "w1"})
        assert grant["idle"] and not grant["done"]  # nothing submitted yet
        assert "w1" in service.workers_seen


# ---------------------------------------------------------------------------
# Socket layer + remote executor (in-process threads)
# ---------------------------------------------------------------------------

@pytest.fixture()
def service_server(tmp_path):
    """A live daemon on an ephemeral port, torn down after the test."""
    server = serve(tmp_path / "spool", port=0, lease_ttl=10.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


class TestRemoteCampaign:
    def test_remote_run_is_record_identical_to_serial(self, rc_circuit,
                                                      service_server):
        serial = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run()
        worker = WorkerClient(service_server.address, worker_id="w0",
                              poll=0.02)
        thread = threading.Thread(
            target=lambda: worker.run(exit_when_done=True), daemon=True)
        thread.start()
        result = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=RemoteExecutor(service_server.address, poll=0.02,
                                    wait_timeout=60.0))
        thread.join(timeout=30)

        assert result.executor == "remote"
        for ours, theirs in zip(serial.records, result.records):
            assert (ours.fault.fault_id, ours.status, ours.detection_time,
                    ours.detected_on, ours.max_deviation,
                    ours.newton_iterations) == (
                theirs.fault.fault_id, theirs.status, theirs.detection_time,
                theirs.detected_on, theirs.max_deviation,
                theirs.newton_iterations)
        # fresh remote work is counted exactly once, like the serial run
        assert (result.telemetry()["newton_iterations_total"]
                == serial.telemetry()["newton_iterations_total"])
        assert result.service["leases_granted"] >= 1
        assert "w0" in result.service["workers"]

    def test_remote_timeout_without_workers(self, rc_circuit,
                                            service_server):
        executor = RemoteExecutor(service_server.address, poll=0.02,
                                  wait_timeout=0.2)
        with pytest.raises(CampaignError, match="did not finish"):
            FaultSimulator(rc_circuit, _fault_list(),
                           _settings()).run(executor=executor)

    def test_unreachable_daemon_is_a_campaign_error(self, rc_circuit):
        executor = RemoteExecutor(("127.0.0.1", 1), timeout=0.5)
        with pytest.raises(CampaignError, match="unreachable"):
            FaultSimulator(rc_circuit, _fault_list(),
                           _settings()).run(executor=executor)


# ---------------------------------------------------------------------------
# Retry/resume telemetry satellite
# ---------------------------------------------------------------------------

class TestRetryTelemetry:
    def test_attempt_defaults_to_one_and_survives_the_checkpoint(self):
        from repro.anafault.checkpoint import RECORD_FIELDS

        assert "attempt" in RECORD_FIELDS
        record = FaultSimulationRecord(_fault_list(1)[0], "undetected")
        assert record.attempt == 1

    def test_record_from_payload_preserves_attempt(self):
        from repro.anafault.executors import record_from_payload

        fault = _fault_list(1)[0]
        fresh = record_from_payload(fault, _record_payload(1, attempt=3),
                                    reloaded=False)
        assert fresh.attempt == 3 and fresh.reloaded is False
        legacy = record_from_payload(fault, {"status": "undetected"})
        assert legacy.attempt == 1 and legacy.reloaded is True

    def test_retried_attempts_do_not_double_count_kernel_totals(self):
        from repro.anafault.simulator import CampaignResult

        faults = _fault_list(2)
        retried = FaultSimulationRecord(faults[0], "undetected",
                                        newton_iterations=10,
                                        steps_accepted=100, attempt=3)
        clean = FaultSimulationRecord(faults[1], "undetected",
                                      newton_iterations=5,
                                      steps_accepted=50)
        result = CampaignResult(settings=_settings(), fault_list=faults,
                                records=[retried, clean])
        telemetry = result.telemetry()
        # only the final attempt's record exists, so totals are the plain
        # per-record sums — retrying must not inflate them
        assert telemetry["newton_iterations_total"] == 15
        assert telemetry["steps_accepted_total"] == 150
        assert telemetry["attempts_total"] == 4
        assert telemetry["retried_faults"] == 1

    def test_reloaded_records_stay_excluded_from_step_totals(self):
        from repro.anafault.simulator import CampaignResult

        faults = _fault_list(2)
        reloaded = FaultSimulationRecord(faults[0], "undetected",
                                         newton_iterations=10,
                                         steps_accepted=100, reloaded=True,
                                         attempt=2)
        fresh = FaultSimulationRecord(faults[1], "undetected",
                                      newton_iterations=5,
                                      steps_accepted=50)
        result = CampaignResult(settings=_settings(), fault_list=faults,
                                records=[reloaded, fresh])
        telemetry = result.telemetry()
        assert telemetry["newton_iterations_total"] == 5
        assert telemetry["steps_accepted_total"] == 50
        assert telemetry["attempts_total"] == 3  # attempts still surfaced
