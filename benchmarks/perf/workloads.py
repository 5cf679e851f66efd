"""Workloads of the fault-campaign performance benchmark.

Each workload builds its inputs from a seed (:func:`make_inputs`), runs
rounds of identical work on them (:func:`run_round`) and checks every
operation of a round against the committed outcomes in ``expected/``.  An
operation is one fault of a campaign, or one request of the fig. 3
request loop.

Times are reported at reference host speed.  The host this benchmark was
built on has phases, from seconds to minutes long, in which the same code
runs up to twice as slowly, whole runs included.  So between operations
each round runs :class:`HostProbe`, a fixed piece of work that belongs to
the benchmark, and every time of the round is scaled by the probe's
reference time over its median time in that round.  Probe time is kept out
of every measured time.  The scaled times of the rounds are then reduced
by their median (:func:`run_metrics`).

Run as a script, this module is the measuring subprocess that ``run.py``
starts for every run.  It prints one JSON line: the moment its inputs were
ready (``time.monotonic``, comparable with the parent's clock), the host
speed right after, and, unless ``--setup-only``, the run's measurements::

    PYTHONPATH=src python3 benchmarks/perf/workloads.py --workload fig5_serial
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1995
#: Rounds a run makes at least; more while the next one still fits in the
#: run's seconds.
MIN_ROUNDS = 3
#: Untraced/traced round pairs of a traced run.
TRACE_PAIRS = 2
#: Operations per workload, and rounds, in ``--smoke`` runs.
SMOKE_OPS = 4
#: Operations whose raw spans a traced run writes as a Chrome trace.
TRACE_OPS = 2
#: ``op_tail_ms`` is this percentile (nearest rank) of per-operation times.
TAIL_PERCENTILE = 90
#: Steps of one :class:`HostProbe` pass, and the pass's median time on the
#: host the benchmark was built on, unloaded (an Intel Xeon, 2 vCPUs).
PROBE_STEPS = 600
PROBE_REFERENCE_S = 0.0115
#: A round probes the host after an emitted operation once this long has
#: passed since its last probe, and once more when it ends.
PROBE_INTERVAL_S = 0.1
BATCH_WIDTH = 8
#: The paper's comparator tolerances and the fig. 3 checks.
AMPLITUDE_TOLERANCE = 2.0
TIME_TOLERANCE = 0.2e-6
MIN_SWING = 3.0
FREQUENCY_TOLERANCE = 0.005
#: Control voltages of the fig. 3 request loop; the VCO oscillates at
#: 1.4-4.7 MHz over this range, so a request costs 1.4k-2.5k solves.
FIG3_VOLTAGES = (3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5)
FIG3_REQUESTS_PER_VOLTAGE = 2


@dataclass(frozen=True)
class Spec:
    """How one workload is built and run."""

    #: ``expected/`` file holding the committed outcome of every operation.
    expected: str
    #: Entry point whose every call starts a new operation in traces.
    op_boundary: str
    #: fig5: the N most probable LIFT faults (``FaultList.top``).
    faults: int = 0
    #: fig5: expected-record field giving a fault's cost, for dealing.
    cost: str = "solves"
    batched: bool = False
    adaptive: bool = False
    checkpoint: bool = False


# Sizes keep a round between 2 and 7 s, so that a 20 s run makes three or
# more.
WORKLOADS = {
    # The fig. 5 campaign the way a user runs it fast: three lockstep
    # batches of 8 with streaming detection and early abort.
    "fig5_batched": Spec("fig5_fixed", "BatchedExecutor._execute_batch",
                         faults=24, cost="solves_early_abort", batched=True),
    # The same faults one at a time with a checkpoint: the per-fault
    # baseline, and the "no change" side for batch-only optimisations.
    "fig5_serial": Spec("fig5_fixed", "FaultSimulator.simulate_fault",
                        faults=24, checkpoint=True),
    # Variable-order BDF campaign: the transient driver's own LTE, order
    # and interpolation work is a real share of the time only here.
    "fig5_adaptive": Spec("fig5_adaptive", "FaultSimulator.simulate_fault",
                          faults=20, adaptive=True),
    # Back-to-back nominal VCO transients, full recording, one client.
    "fig3_nominal": Spec("fig3_nominal", "TransientRun.__init__"),
}

#: The LTE settings of the adaptive fig. 3 / fig. 5 studies.
ADAPTIVE_TIMESTEP = dict(mode="adaptive", lte_reltol=3e-3, lte_abstol=1e-4,
                         dt_max=8e-8)


class HostProbe:
    """A fixed piece of interpreter and small-array numpy work, timed to
    read how fast the host runs code like the simulator's right now.

    It is part of the benchmark, never of the program, so no change to the
    program moves it.  Calling the probe runs one pass and returns its
    time; a round keeps every pass's time in :attr:`Round.probes`.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(DEFAULT_SEED)
        self._numpy = numpy
        self._matrix = rng.random((20, 20)) + 20.0 * numpy.eye(20)
        self._rhs = rng.random(20)
        self._index = (rng.integers(0, 20, 200), rng.integers(0, 20, 200))
        self._values = rng.random(200)

    def __call__(self) -> float:
        numpy = self._numpy
        start = time.perf_counter()
        for step in range(PROBE_STEPS):
            matrix = self._matrix.copy()
            numpy.add.at(matrix, self._index, self._values * (1 + step % 3))
            solution = numpy.linalg.solve(matrix, self._rhs)
            float(numpy.max(numpy.maximum(numpy.abs(solution), 1e-3)))
        return time.perf_counter() - start


class _Prober:
    """Runs the probe between operations of one round, at most once per
    :data:`PROBE_INTERVAL_S`, and keeps its times."""

    def __init__(self, probe):
        self.probe = probe
        self.times: list[float] = []
        self._last = time.perf_counter()

    def between(self) -> float:
        """Probe if due; returns the seconds spent probing."""
        if time.perf_counter() - self._last < PROBE_INTERVAL_S:
            return 0.0
        return self.take()

    def take(self) -> float:
        """Probe now; returns the seconds spent probing."""
        seconds = self.probe()
        self.times.append(seconds)
        self._last = time.perf_counter()
        return seconds


@dataclass
class Inputs:
    """Everything one workload run simulates, built from the seed."""

    workload: str
    seed: int
    smoke: bool
    #: Committed outcome per operation key (fault id or control voltage).
    expected: dict
    circuit: object = None
    fault_list: object = None
    settings: object = None
    #: fig3: control voltage of every request, in request order.
    requests: list = field(default_factory=list)
    #: fig3: the VCO built for each control voltage.
    circuits: dict = field(default_factory=dict)


@dataclass
class Round:
    """One pass over a workload's inputs.  Times are as measured, with the
    probes' own time taken out."""

    wall_s: float
    #: Operation key (fault id, request index) -> latency, for every
    #: operation that completed.
    op_seconds: dict
    #: Key -> time to the first result: the campaign's first emitted record
    #: (one key), or each fig3 request's first computed print row.
    first_seconds: dict
    #: Per-operation outcome tuples; every round of a run must agree.
    outcomes: list
    #: Exact work counts of the round.
    counts: dict
    attempted: int
    #: ``(operation, message)`` of every failed check.
    failures: list = field(default_factory=list)
    #: Size of the round's checkpoint file; not exact, as the records
    #: carry measured times.
    checkpoint_bytes: int = 0
    #: :class:`HostProbe` times taken during the round.
    probes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Operations with at least one failed check."""
        return len({operation for operation, _ in self.failures
                    if operation is not None})

    @property
    def speed(self) -> float:
        """Host speed over the round relative to the reference host
        (below 1 when slower); scales every time of the round."""
        if not self.probes:
            return 1.0
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def tail_index(count: int) -> int:
    """Index, in sorted order, of the :data:`TAIL_PERCENTILE` value."""
    return max(0, math.ceil(TAIL_PERCENTILE / 100 * count) - 1)


def _medians(samples: list) -> dict:
    """Key-wise median over dicts of times."""
    keys = dict.fromkeys(key for sample in samples for key in sample)
    return {key: statistics.median(sample[key] for sample in samples
                                   if key in sample) for key in keys}


def run_metrics(rounds: list, scaled: bool = True) -> dict:
    """End-to-end time metrics of a run: each round's times at reference
    host speed (as measured when ``scaled`` is false), then the median over
    rounds, per operation for the operation metrics."""
    speeds = [r.speed if scaled else 1.0 for r in rounds]

    def per_key(field_name: str) -> list:
        return list(_medians([
            {key: seconds * speed
             for key, seconds in getattr(r, field_name).items()}
            for r, speed in zip(rounds, speeds)]).values())

    wall = statistics.median(r.wall_s * speed
                             for r, speed in zip(rounds, speeds))
    ops = sorted(per_key("op_seconds")) or [wall]
    firsts = per_key("first_seconds") or [wall]
    return {"wall_s": wall,
            "first_result_s": statistics.median(firsts),
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_tail_ms": 1e3 * ops[tail_index(len(ops))]}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text(
        encoding="utf-8"))


def campaign_settings(adaptive: bool):
    """The paper's fig. 5 campaign settings, streaming on."""
    from repro.anafault import CampaignSettings, ToleranceSettings
    from repro.circuits import OUTPUT_NODE
    from repro.spice import TransientOptions

    timestep = (TransientOptions(**ADAPTIVE_TIMESTEP) if adaptive
                else TransientOptions())
    return CampaignSettings(
        tstop=4e-6, tstep=1e-8, use_ic=True,
        observation_nodes=(OUTPUT_NODE,),
        tolerances=ToleranceSettings(amplitude=AMPLITUDE_TOLERANCE,
                                     time=TIME_TOLERANCE),
        stream_traces=True, timestep=timestep)


def dealt_order(ids: list, cost: dict, rng: random.Random,
                width: int = BATCH_WIDTH) -> list:
    """Seeded order of ``ids`` that gives every seed the same cost mix.

    The ids are cut into ``width`` strata of similar committed cost, each
    stratum is shuffled, and the order deals one id from every stratum in
    turn, cheapest stratum first.  Each batch of ``width`` then holds one
    fault per cost stratum: the seed decides which faults share a batch,
    not how expensive the batch is, and the first fault of a serial run
    always comes from the cheapest stratum.
    """
    ranked = sorted(ids, key=lambda fault_id: (cost[fault_id], fault_id))
    strata = [ranked[k * len(ranked) // width:(k + 1) * len(ranked) // width]
              for k in range(width)]
    for stratum in strata:
        rng.shuffle(stratum)
    rows = max(len(stratum) for stratum in strata)
    return [stratum[row] for row in range(rows) for stratum in strata
            if row < len(stratum)]


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Build the inputs of ``workload`` for ``seed``.

    The operations themselves are fixed per workload (the N most probable
    faults, or every control voltage twice); the seed orders them.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    if workload == "fig3_nominal":
        from repro.circuits import VCOParameters, build_vco

        expected = {record["control_voltage"]: record for record in
                    load_expected(spec.expected)["requests"]}
        requests = [voltage for voltage in FIG3_VOLTAGES
                    for _ in range(FIG3_REQUESTS_PER_VOLTAGE)]
        rng.shuffle(requests)
        if smoke:
            requests = requests[:SMOKE_OPS]
        circuits = {voltage: build_vco(VCOParameters(control_voltage=voltage))
                    for voltage in sorted(set(requests))}
        return Inputs(workload, seed, smoke, expected, requests=requests,
                      circuits=circuits)

    from repro.cat import CATFlow
    from repro.circuits import build_vco_layout
    from repro.lift import FaultList

    expected = {record["fault_id"]: record for record in
                load_expected(spec.expected)["faults"]}
    circuit, layout = build_vco_layout()
    universe = CATFlow(circuit, layout).extract_faults().realistic_faults
    chosen = universe.top(spec.faults)
    by_id = {fault.fault_id: fault for fault in chosen}
    missing = sorted(set(by_id) - set(expected))
    if missing:
        raise LookupError(
            f"faults {missing} have no outcome in expected/{spec.expected}"
            ".json; the LIFT fault list changed, so rerun make_expected.py")
    order = dealt_order(list(by_id), {fault_id: expected[fault_id][spec.cost]
                                      for fault_id in by_id}, rng)
    if smoke:
        order = order[:SMOKE_OPS]
    fault_list = FaultList(f"{chosen.name} [{workload}, seed {seed}]",
                           [by_id[fault_id] for fault_id in order],
                           dict(chosen.metadata))
    return Inputs(workload, seed, smoke, expected, circuit=circuit,
                  fault_list=fault_list,
                  settings=campaign_settings(spec.adaptive))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_round(inputs: Inputs, probe) -> Round:
    """Run every operation of ``inputs`` once, probing the host between
    operations with ``probe``, and check the outcomes."""
    prober = _Prober(probe)
    if inputs.workload == "fig3_nominal":
        round_ = _run_requests(inputs, prober)
    else:
        round_ = _run_campaign(inputs, prober)
    prober.take()
    round_.probes = prober.times
    round_.failures += check_round(inputs, round_)
    return round_


def check_round(inputs: Inputs, round_: Round) -> list:
    """``(operation, message)`` for every outcome of ``round_`` that
    disagrees with ``inputs.expected`` (and every fault left without one)."""
    failures = []
    if inputs.workload == "fig3_nominal":
        for index, voltage, frequency, swing, _ in round_.outcomes:
            want = inputs.expected[voltage]["frequency_hz"]
            if swing < MIN_SWING:
                failures.append((index, f"request {index} ({voltage} V): "
                                        f"swing {swing:.2f} V < {MIN_SWING} V"))
            elif abs(frequency - want) > FREQUENCY_TOLERANCE * want:
                failures.append((index, f"request {index} ({voltage} V): "
                                        f"{frequency:.6g} Hz, expected "
                                        f"{want:.6g} Hz"))
        return failures
    seen = {outcome[0] for outcome in round_.outcomes}
    failures += [(fault.fault_id, f"fault {fault.fault_id}: no record")
                 for fault in inputs.fault_list if fault.fault_id not in seen]
    for fault_id, status, detection_time, *_ in round_.outcomes:
        want = inputs.expected[fault_id]
        if status != want["status"]:
            failures.append((fault_id, f"fault {fault_id}: {status}, "
                                       f"expected {want['status']}"))
        elif (detection_time is not None
              and abs(detection_time - want["detection_time"])
              > TIME_TOLERANCE):
            failures.append((fault_id, f"fault {fault_id}: detected at "
                                       f"{detection_time:g} s, expected "
                                       f"{want['detection_time']:g} s"))
    return failures


def _run_campaign(inputs: Inputs, prober: _Prober) -> Round:
    """One ``FaultSimulator.run`` over the workload's fault list; the host
    is probed from the progress callback, between emitted records."""
    from repro.anafault import BatchedExecutor, FaultSimulator, SerialExecutor

    spec = WORKLOADS[inputs.workload]
    simulator = FaultSimulator(inputs.circuit, inputs.fault_list,
                               inputs.settings)
    executor = (BatchedExecutor(batch_width=BATCH_WIDTH, early_abort=True)
                if spec.batched else SerialExecutor())
    attempted = len(inputs.fault_list)
    emitted: list[float] = []
    probing = 0.0

    def progress(*_) -> None:
        nonlocal probing
        emitted.append(time.perf_counter() - probing)
        probing += prober.between()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        checkpoint = (Path(scratch) / "campaign.jsonl" if spec.checkpoint
                      else None)
        start = time.perf_counter()
        try:
            result = simulator.run(progress_callback=progress,
                                   checkpoint=checkpoint, executor=executor)
        except Exception as exc:  # a crashed campaign leaves no records
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - start - probing
            return Round(wall, {}, {}, [], {}, attempted,
                         [(None, f"campaign raised {exc!r}")])
        wall = time.perf_counter() - start - probing
        checkpoint_bytes = checkpoint.stat().st_size if checkpoint else 0

    telemetry = result.telemetry()
    records = [record for record in result.records if record is not None]
    outcomes = [(r.fault.fault_id, r.status, r.detection_time,
                 r.persistent_deviation, r.newton_iterations,
                 r.steps_accepted, r.steps_rejected, r.trace_bytes)
                for r in records]
    counts = {"newton_solves": telemetry["newton_iterations_total"],
              "steps_accepted": telemetry["steps_accepted_total"],
              "steps_rejected": telemetry["steps_rejected_total"],
              "early_aborted": telemetry["early_aborted"],
              "trace_bytes_max": telemetry["trace_bytes_max"]}
    first = {"campaign": emitted[0] - start} if emitted else {}
    return Round(wall, {r.fault.fault_id: r.elapsed_seconds for r in records},
                 first, outcomes, counts, attempted,
                 checkpoint_bytes=checkpoint_bytes)


def _run_requests(inputs: Inputs, prober: _Prober) -> Round:
    """The fig. 3 closed loop: one client, one request after another."""
    from repro.circuits import OUTPUT_NODE, nominal_transient_settings
    from repro.spice import TransientAnalysis

    settings = nominal_transient_settings()
    op_seconds, first_seconds, outcomes, failures = {}, {}, [], []
    counts = {"newton_solves": 0, "steps_accepted": 0, "steps_rejected": 0,
              "early_aborted": 0, "trace_bytes_max": 0}
    probing = 0.0
    start = time.perf_counter()
    for index, voltage in enumerate(inputs.requests):
        probing += prober.between()
        begin = time.perf_counter()
        try:
            # TransientAnalysis.run() spelled out, to time the first row.
            run = TransientAnalysis(inputs.circuits[voltage],
                                    **settings).start()
            run.advance()
            first = time.perf_counter()
            while run.advance():
                pass
            result = run.finish()
        except Exception as exc:  # the loop keeps serving; the op failed
            traceback.print_exc(file=sys.stderr)
            failures.append((index, f"request {index} ({voltage} V) "
                                    f"raised {exc!r}"))
            continue
        end = time.perf_counter()
        op_seconds[index] = end - begin
        first_seconds[index] = first - begin
        output = result.waveform(OUTPUT_NODE)
        stats = result.stats
        outcomes.append((index, voltage, output.frequency(),
                         output.peak_to_peak(), stats["newton_iterations"]))
        counts["newton_solves"] += stats["newton_iterations"]
        counts["steps_accepted"] += stats["steps_accepted"]
        counts["steps_rejected"] += stats["steps_rejected"]
        counts["trace_bytes_max"] = max(counts["trace_bytes_max"],
                                        stats["trace_bytes"])
    wall = time.perf_counter() - start - probing
    return Round(wall, op_seconds, first_seconds, outcomes, counts,
                 len(inputs.requests), failures)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _summary(rounds: list) -> dict:
    """Counts and checks of a run's rounds; rounds over identical inputs
    must also agree with each other on outcomes and work counts."""
    failures = [message for r in rounds for _, message in r.failures]
    if any(r.outcomes != rounds[0].outcomes or r.counts != rounds[0].counts
           for r in rounds):
        failures.append("rounds over identical inputs disagree")
    ops = len(rounds[0].op_seconds)
    return {"rounds": len(rounds),
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "failures": failures,
            "ops": ops,
            "tail_percentile": 100.0 * (tail_index(ops) + 1) / max(ops, 1),
            "counts": rounds[0].counts,
            "host_speed": [r.speed for r in rounds]}


def measure(inputs: Inputs, probe, seconds: float,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Untraced run: at least ``min_rounds`` rounds, more while the next
    one still fits in ``seconds``."""
    started = time.perf_counter()
    rounds = [run_round(inputs, probe)]
    while (len(rounds) < min_rounds or time.perf_counter() - started
           + rounds[-1].wall_s <= seconds):
        rounds.append(run_round(inputs, probe))
    return {**_summary(rounds), "metrics": run_metrics(rounds),
            "measured": run_metrics(rounds, scaled=False),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_rounds(inputs: Inputs, probe, pairs: int = TRACE_PAIRS) -> list:
    """``pairs`` of ``(untraced round, traced round, its tracer)``; the
    first traced round records the spans of the first operations.  Inside
    a traced round the probe runs as a traced span of its own, so its time
    stays out of the self time of the layer that called it."""
    from tracer import Tracer

    result = []
    for pair in range(pairs):
        plain = run_round(inputs, probe)
        tracer = Tracer(record_ops=TRACE_OPS if pair == 0 else 0,
                        op_boundary=WORKLOADS[inputs.workload].op_boundary)
        with tracer.installed():
            traced = run_round(inputs, tracer.wrap(PROBE_LAYER, "HostProbe",
                                                   probe))
        result.append((plain, traced, tracer))
    return result


#: Tracer layer of the probe's own spans; no per-layer metric.
PROBE_LAYER = "bench.probe"


def layer_metrics(tracer, setup_tracer, setup_speed: float, plain: Round,
                  traced: Round) -> dict:
    """Per-layer metrics of ``traced`` at reference host speed (see
    README.md for the map); ``lift.extract_s`` comes from the setup."""
    from tracer import LAYERS

    metrics = {}
    for layer in dict.fromkeys(layer for layer, _ in LAYERS):
        if layer == "lift.extract":
            value = setup_tracer.self_seconds.get(layer, 0.0) * setup_speed
        elif layer == "simulator.nominal":
            # Inclusive: the nominal transient's kernel layers are the
            # same ones every fault uses.
            value = tracer.total_seconds.get(layer, 0.0) * traced.speed
        else:
            value = tracer.self_seconds.get(layer, 0.0) * traced.speed
        metrics[f"{layer}_s"] = value
    counts = traced.counts
    steps = counts["steps_accepted"] + counts["steps_rejected"]
    attributed = sum(seconds for layer, seconds in tracer.self_seconds.items()
                     if layer != PROBE_LAYER)
    metrics.update({
        "newton.solves": counts["newton_solves"],
        "newton.calls": tracer.calls.get("solve_newton", 0),
        "devices.mosfet_evals": tracer.calls.get(
            "MosfetBank.stamp_iteration", 0),
        "transient.steps_accepted": counts["steps_accepted"],
        "transient.steps_rejected": counts["steps_rejected"],
        "transient.accept_ratio": counts["steps_accepted"] / max(steps, 1),
        "executors.early_aborted": counts["early_aborted"],
        "checkpoint.bytes": traced.checkpoint_bytes,
        "transient.trace_bytes_max": counts["trace_bytes_max"],
        "newton.us_per_solve": 1e6 * plain.wall_s * plain.speed
                               / max(counts["newton_solves"], 1),
        "trace.overhead": (traced.wall_s * traced.speed
                           / (plain.wall_s * plain.speed) - 1.0),
        "trace.attributed": attributed / traced.wall_s,
    })
    return metrics


def trace(inputs: Inputs, probe, setup_tracer, setup_speed: float,
          pairs: int = TRACE_PAIRS) -> dict:
    """Traced run: per-layer metrics of the traced round against the
    untraced round of the pair with the median untraced time, and the
    first operations' spans written to ``out/`` as a Chrome trace."""
    triples = traced_rounds(inputs, probe, pairs)
    ranked = sorted(triples, key=lambda t: t[0].wall_s * t[0].speed)
    plain, traced, tracer = ranked[(len(ranked) - 1) // 2]
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if inputs.smoke else ""
    chrome = OUT_DIR / f"{inputs.workload}-seed{inputs.seed}{suffix}.trace.json"
    chrome.write_text(json.dumps(triples[0][2].chrome_trace()),
                      encoding="utf-8")
    rounds = [r for p, t, _ in triples for r in (p, t)]
    return {**_summary(rounds),
            "layers": layer_metrics(tracer, setup_tracer, setup_speed, plain,
                                    traced),
            "chrome_trace": str(chrome.relative_to(HERE))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="further rounds while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} operations, one round (pair)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report when, and exit")
    args = parser.parse_args(argv)

    setup_tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
    try:
        inputs = make_inputs(args.workload, args.seed, args.smoke)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    ready_at = time.monotonic()
    probe = HostProbe()
    # Host speed during setup, read right after it.
    speed = PROBE_REFERENCE_S / statistics.median(probe() for _ in range(5))
    payload = {"ready_at": ready_at, "speed": speed}
    if not args.setup_only:
        import numpy

        payload["numpy"] = numpy.__version__
        rounds = 1 if args.smoke else None
        payload.update(
            trace(inputs, probe, setup_tracer, speed, rounds or TRACE_PAIRS)
            if args.trace else
            measure(inputs, probe, args.seconds, rounds or MIN_ROUNDS))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
