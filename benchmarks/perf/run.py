"""Performance benchmark of the fault-campaign pipeline.

Runs each workload in fresh subprocesses, one at a time, prints every
metric by name with its unit, checks every operation against the committed
outcomes in ``expected/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/perf/run.py [--workload W ...] [--seed S]
        [--seconds N] [--repeats R] [--trace [0|1]] [--smoke] [--out F]

Without ``--trace`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with it, a separate traced pass gives the per-layer
split (see ``README.md``).  ``--out`` writes the full result document,
stamped with commit, seed and environment, for ``diff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Bumped whenever a change to the benchmark makes results incomparable.
VERSION = 1
#: Setups timed per run (subprocess start to inputs ready); the median is
#: ``setup_s``.  The last one goes on to measure.
SETUP_SAMPLES = 5
#: A subprocess still running after this long is killed.
CHILD_TIMEOUT_S = 170.0
#: Failure messages kept per workload in the result document.
MAX_FAILURES = 20


class RunError(Exception):
    """A measuring subprocess crashed, timed out or printed no result."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Run from the repository root; the program is imported "
               "from src/.")
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run; further rounds run "
                             "while the next still fits (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, interleaved; metrics are "
                             "medians over runs")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer pass instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{workloads.SMOKE_OPS} operations per "
                             "workload, one round; --out must be under "
                             "benchmarks/perf/out/")
    parser.add_argument("--out", type=Path,
                        help="write the stamped result document here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke and args.out is not None:
        out = args.out.resolve()
        if workloads.OUT_DIR.resolve() not in out.parents:
            parser.error("--smoke results may only be written under "
                         "benchmarks/perf/out/")
    return args


def run_child(workload: str, args: argparse.Namespace, seconds: float,
              setup_only: bool) -> dict:
    """Start one measuring subprocess and return its JSON payload, with
    ``setup_s`` measured from just before the start."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(0.0 if args.smoke else seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    try:
        finished = subprocess.run(command, cwd=ROOT, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload}: subprocess killed after "
                       f"{CHILD_TIMEOUT_S:.0f} s") from exc
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise RunError(f"{workload}: subprocess exited with "
                       f"{finished.returncode}")
    payload = json.loads(lines[-1])
    payload["setup_measured_s"] = payload["ready_at"] - spawned
    payload["setup_s"] = payload["setup_measured_s"] * payload["speed"]
    return payload


def run_once(workload: str, args: argparse.Namespace, seconds: float) -> dict:
    """One run: timed setups, the last of which goes on to measure."""
    samples = 1 if args.trace else SETUP_SAMPLES
    setups = [run_child(workload, args, seconds, setup_only=True)
              for _ in range(samples - 1)]
    payload = run_child(workload, args, seconds, setup_only=False)
    setups.append(dict(payload))
    for key in ("setup_s", "setup_measured_s"):
        payload[key] = statistics.median(setup[key] for setup in setups)
    return payload


def run_metrics(payload: dict, trace: bool) -> dict:
    """The metrics one run contributes (end-to-end or per-layer)."""
    if trace:
        return payload["layers"]
    return {"setup_s": payload["setup_s"], **payload["metrics"],
            "peak_rss_mb": payload["peak_rss_mb"]}


def summarise(workload: str, payloads: list, spec: dict, trace: bool) -> dict:
    """Medians over runs, checked against the metric names of
    ``BENCHMARK.json``."""
    runs = [run_metrics(payload, trace) for payload in payloads]
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in runs[0]]
    if missing:
        raise RunError(f"{workload}: no value for declared metrics {missing}")
    attempted = sum(p["attempted"] for p in payloads)
    failed = sum(p["failed"] for p in payloads)
    failures = [message for p in payloads for message in p["failures"]]
    if any(p["counts"] != payloads[0]["counts"] for p in payloads):
        failures.append("runs over identical inputs disagree on work counts")
    return {"correct": not failures,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "failures": failures[:MAX_FAILURES],
            "ops": payloads[0]["ops"],
            "tail_percentile": payloads[0]["tail_percentile"],
            "rounds": [p["rounds"] for p in payloads],
            "counts": payloads[0]["counts"],
            "metrics": {m["name"]: {"value": statistics.median(
                            run[m["name"]] for run in runs),
                            "unit": m["unit"]} for m in declared},
            "runs": runs,
            "host_speed": [p["host_speed"] for p in payloads],
            **({"measured_runs": [{"setup_s": p["setup_measured_s"],
                                   **p["measured"]} for p in payloads]}
               if not trace else
               {"chrome_trace": payloads[0]["chrome_trace"]})}


def _git(*command: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *command], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args: argparse.Namespace, seconds: float, numpy_version) -> dict:
    """Where and how the results were measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {"benchmark_version": VERSION,
            "commit": commit.strip() if commit else "unknown",
            "dirty": None if status is None else bool(status.strip()),
            "smoke": args.smoke, "seed": args.seed, "repeats": args.repeats,
            "seconds": seconds, "trace": bool(args.trace),
            "nproc": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else os.cpu_count()),
            "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version}


def report(document: dict, spec: dict) -> None:
    """Human-readable table of every metric."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, result in document["workloads"].items():
        print(f"{name}: {result['ops']} ops per round, runs "
              f"{len(result['runs'])}, rounds {result['rounds']}, failed "
              f"{result['failed']}/{result['attempted']} (error_rate "
              f"{result['error_rate']:.3g})")
        for metric, entry in result["metrics"].items():
            note = ""
            if metric == "op_tail_ms":
                note = (f"  p{result['tail_percentile']:.1f} of "
                        f"{result['ops']} ops")
            if bounds.get(metric) is not None:
                note += f"  bound {bounds[metric]:.0%}"
            print(f"  {metric:<28} {entry['value']:>14.6g} "
                  f"{entry['unit']:<6}{note}")
        for message in result["failures"]:
            print(f"  FAILED: {message}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: {ROOT} holds no program source (src/repro); run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = (float(spec["run_seconds"]) if args.seconds is None
               else args.seconds)
    names = args.workload or list(workloads.WORKLOADS)
    payloads: dict[str, list] = {name: [] for name in names}
    try:
        for _ in range(args.repeats):
            for name in names:
                payloads[name].append(run_once(name, args, seconds))
        results = {name: summarise(name, payloads[name], spec,
                                   bool(args.trace)) for name in names}
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    document = {"benchmark": "fault-campaign pipeline",
                "stamp": stamp(args, seconds, payloads[names[0]][0]["numpy"]),
                "end_to_end": spec["end_to_end"],
                "per_layer": spec["per_layer"],
                "workloads": results}
    report(document, spec)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    # One workload: the metrics as declared.  Several: prefixed by workload.
    metrics = {(metric if len(names) == 1 else f"{name}.{metric}"): entry
               for name, result in results.items()
               for metric, entry in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
