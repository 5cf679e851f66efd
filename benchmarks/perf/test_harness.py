"""Tests of the performance benchmark's own machinery.

The repository's tier-1 run collects this file.  The campaign tests use
``--smoke``-sized inputs (four operations per workload).
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import diff  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, HostProbe,  # noqa: E402
                       check_round, dealt_order, layer_metrics, make_inputs,
                       run_metrics, traced_rounds)

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(
    encoding="utf-8"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_accounting_on_nested_calls_with_a_raising_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock, record_ops=1, op_boundary="outer")
    calls = {}

    def leaf(fail):
        clock.now += 1.0
        if fail:
            raise ValueError("leaf failed")

    def middle():
        clock.now += 2.0
        calls["leaf"](False)
        try:
            calls["leaf"](True)
        except ValueError:
            clock.now += 0.5  # handling the failure is the middle's time

    def outer():
        clock.now += 4.0
        calls["middle"]()
        calls["middle"]()

    calls["leaf"] = tracer.wrap("layer.leaf", "leaf", leaf)
    calls["middle"] = tracer.wrap("layer.middle", "middle", middle)
    tracer.wrap("layer.outer", "outer", outer)()

    assert tracer.self_seconds == {"layer.leaf": 4.0, "layer.middle": 5.0,
                                   "layer.outer": 4.0}
    assert tracer.total_seconds["layer.outer"] == 13.0
    assert sum(tracer.self_seconds.values()) == clock.now
    assert tracer.calls == {"leaf": 4, "middle": 2, "outer": 1}
    assert len(tracer.spans) == 7
    assert {span[-1] for span in tracer.spans} == {0}
    # The stack unwound through the raise: a later call is accounted alone.
    calls["leaf"](False)
    assert tracer.self_seconds["layer.leaf"] == 5.0


def test_uninstall_restores_every_patched_attribute():
    from repro.spice.analysis import newton, transient

    solve_newton = newton.solve_newton
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    assert len(patched) >= len(LAYERS)
    # The name the transient driver calls is wrapped, not only the
    # definition.
    assert transient.solve_newton is not solve_newton
    for owner, name, original in patched:
        assert vars(owner)[name] is not original
    tracer.uninstall()
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert transient.solve_newton is solve_newton


@pytest.fixture(scope="module")
def smoke_rounds():
    """``workload -> (inputs, plain, traced, tracer)`` of smoke runs."""
    rounds = {}
    probe = HostProbe()
    for workload in WORKLOADS:
        inputs = make_inputs(workload, DEFAULT_SEED, smoke=True)
        rounds[workload] = (inputs,
                            *traced_rounds(inputs, probe, pairs=1)[0])
    return rounds


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_smoke_rounds_agree(smoke_rounds, workload):
    inputs, plain, traced, tracer = smoke_rounds[workload]
    assert plain.failures == [] and traced.failures == []
    assert plain.attempted == traced.attempted == 4
    assert traced.outcomes == plain.outcomes
    assert traced.counts == plain.counts
    assert tracer.calls and sum(tracer.self_seconds.values()) > 0.0
    # Every declared metric is produced, and nothing undeclared.
    assert plain.probes and traced.probes
    end_to_end = {"setup_s", "peak_rss_mb", *run_metrics([plain, traced])}
    assert end_to_end == {m["name"] for m in SPEC["end_to_end"]}
    layers = layer_metrics(tracer, Tracer(), 1.0, plain, traced)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ["fig5_batched", "fig3_nominal"])
def test_tampered_expectation_counts_as_a_failed_operation(smoke_rounds,
                                                           workload):
    inputs, plain, _, _ = smoke_rounds[workload]
    assert check_round(inputs, plain) == []
    tampered = copy.deepcopy(inputs)
    if workload == "fig3_nominal":
        voltage = inputs.requests[0]
        tampered.expected[voltage]["frequency_hz"] *= 1.02
        expected_failures = inputs.requests.count(voltage)
    else:
        fault_id = inputs.fault_list[0].fault_id
        want = tampered.expected[fault_id]
        want["status"] = ("undetected" if want["status"] == "detected"
                          else "detected")
        expected_failures = 1
    plain.failures = check_round(tampered, plain)
    try:
        assert plain.failed == expected_failures
        assert plain.failed / plain.attempted > 0.0
    finally:
        plain.failures = []


def _chosen(workload: str, seed: int) -> list:
    """What the seed chose: fault ids or request voltages, in order."""
    inputs = make_inputs(workload, seed)
    if inputs.fault_list is not None:
        return [fault.fault_id for fault in inputs.fault_list]
    return inputs.requests


@pytest.mark.parametrize("workload", ["fig5_serial", "fig3_nominal"])
def test_seed_alone_determines_the_inputs(workload):
    first = _chosen(workload, 7)
    assert _chosen(workload, 7) == first
    other = _chosen(workload, 8)
    assert other != first and sorted(other) == sorted(first)


def test_dealt_order_puts_one_fault_of_each_cost_stratum_in_every_batch():
    ids = list(range(32))
    order = dealt_order(ids, {i: i for i in ids}, random.Random(3), width=8)
    assert sorted(order) == ids
    for start in range(0, 32, 8):
        assert [i // 4 for i in order[start:start + 8]] == list(range(8))
    assert order != dealt_order(ids, {i: i for i in ids}, random.Random(4),
                                width=8)


def _document(runs: dict, **stamp) -> dict:
    return {"stamp": {"benchmark_version": 1, "smoke": False, "seed": 1995,
                      "trace": False, **stamp},
            "end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": [],
            "workloads": {"w": {"runs": [{"wall_s": v} for v in runs]}}}


@pytest.mark.parametrize("new, judged", [
    ([10.0, 10.1, 9.9], "unchanged"),
    ([12.0, 12.2, 11.9], "regressed"),
    ([8.0, 8.1, 7.9], "improved"),
    ([10.0, 13.0, 7.0], "unresolved"),
])
def test_diff_judges_each_metric_against_its_bound(new, judged):
    lines, regressed = diff.compare(_document([10.0, 10.05, 9.95]),
                                    _document(new))
    assert lines[-1].endswith(judged)
    assert regressed == (judged == "regressed")


@pytest.mark.parametrize("stamp", [{"smoke": True}, {"seed": 7},
                                   {"benchmark_version": 2}])
def test_diff_refuses_incomparable_documents(stamp):
    with pytest.raises(diff.Incomparable):
        diff.compare(_document([1.0]), _document([1.0], **stamp))


def test_smoke_results_may_not_be_written_to_results():
    with pytest.raises(SystemExit):
        run.parse_args(["--smoke", "--out",
                        str(HERE / "results" / "smoke.json")])
    assert run.parse_args(["--smoke", "--out",
                           str(HERE / "out" / "smoke.json")]).smoke
