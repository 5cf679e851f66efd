#!/usr/bin/env python
"""Paired A/B of one perf-benchmark workload: a git revision against the
working tree, run alternately (stdlib only).

A speed claim is judged on pairs of runs, not on two medians taken hours
apart: the host's speed drifts over minutes, so each pair runs the two
trees back to back and the order flips from pair to pair.

``python tools/perf_ab.py --base REV --workload W [--pairs 10]``
    Extracts ``REV`` with ``git archive`` into a temporary directory.
    Each pair runs ``benchmarks/perf/run.py --workload W --repeats 1
    --out ...`` once in each tree, in a fresh process, the base first in
    even pairs and the working tree first in odd ones.  Then it prints,
    for every end-to-end metric, both medians, both quartiles, the
    relative change of the medians, the pairs the working tree won, and
    whether that is a gain: won in at least 9 of 10 pairs (the same
    share of other counts) and better in the median by more than the
    distance between the base's quartiles.  A metric whose base
    quartile distance exceeds its ``BENCHMARK.json`` bound times the base
    median is marked "unresolved": the base alone spreads wider than the
    regression bound, so these pairs can neither show a regression nor
    rule one out.  ``--seed`` passes through
    to ``run.py``.  ``make perf-ab BASE=<rev> WORKLOAD=<w> PAIRS=10``
    runs it.

Exit status: 0 when every run of both trees was correct, 1 when a run
failed or reported ``"correct": false``, 2 for a bad revision.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "record_identity", REPO_ROOT / "tools" / "record_identity.py")
record_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_identity)
#: Share of pairs the new tree must win for a gain (9 of 10).
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, exclusive
    method); both equal the value for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def summarise(pairs: list, declared: list) -> list:
    """One row per declared metric over ``pairs`` of ``(base_run,
    new_run)`` metric dicts (one ``runs`` entry of a result document
    each).

    ``change`` is relative to the base median, positive when the new
    tree is worse; ``won`` counts the pairs in which the new run is
    strictly better; ``gain`` needs ``won`` of at least
    :data:`WIN_SHARE` of the pairs and a median better by more than the
    base's interquartile distance.  ``unresolved`` is set when that
    distance exceeds the metric's declared ``bound`` (a share of the
    median, as ``BENCHMARK.json`` gives it) times the base median.
    """
    rows = []
    for metric in declared:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        base = [run[name] for run, _ in pairs]
        new = [run[name] for _, run in pairs]
        base_median, new_median = statistics.median(base), statistics.median(new)
        base_q1, base_q3 = quartiles(base)
        new_q1, new_q3 = quartiles(new)
        bound = metric.get("bound")
        won = sum(sign * after < sign * before
                  for before, after in zip(base, new))
        improvement = sign * (base_median - new_median)
        rows.append({
            "name": name, "unit": metric["unit"],
            "base_median": base_median, "base_q1": base_q1,
            "base_q3": base_q3, "new_median": new_median,
            "new_q1": new_q1, "new_q3": new_q3,
            "change": (-improvement / base_median if base_median
                       else 0.0),
            "won": won, "pairs": len(pairs),
            "gain": (won >= WIN_SHARE * len(pairs)
                     and improvement > base_q3 - base_q1),
            "unresolved": (bound is not None
                           and base_q3 - base_q1 > bound * abs(base_median)),
        })
    return rows


def format_summary(rows: list) -> str:
    lines = [f"{'metric':<16}{'base median':>13}{'base q1-q3':>25}"
             f"{'new median':>13}{'new q1-q3':>25}{'change':>9}"
             f"{'won':>8}  gain"]
    for row in rows:
        lines.append(
            f"{row['name']:<16}{row['base_median']:>13.6g}"
            f"{row['base_q1']:>12.6g}-{row['base_q3']:<12.6g}"
            f"{row['new_median']:>13.6g}"
            f"{row['new_q1']:>12.6g}-{row['new_q3']:<12.6g}"
            f"{row['change']:>+9.1%}{row['won']:>4}/{row['pairs']:<3}"
            f"  {'yes' if row['gain'] else 'no'}  {row['unit']}"
            + ("  unresolved" if row["unresolved"] else ""))
    if any(row["unresolved"] for row in rows):
        lines.append("unresolved: the base's quartile distance exceeds the "
                     "metric's bound times its median")
    return "\n".join(lines)


def run_once(tree: pathlib.Path, workload: str, out: pathlib.Path,
             passthrough: list) -> dict:
    """One ``run.py --repeats 1`` of ``workload`` in ``tree``; its result
    document."""
    command = [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
               "--workload", workload, "--repeats", "1", "--out", str(out),
               *passthrough]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    passthrough = []
    if args.seed is not None:
        passthrough += ["--seed", str(args.seed)]

    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        work = pathlib.Path(scratch)
        try:
            commit = record_identity.extract(args.base, work / "base")
        except ValueError as exc:
            print(f"perf_ab: {exc}", file=sys.stderr)
            return 2
        trees = {"base": work / "base", "new": REPO_ROOT}
        pairs, correct, declared = [], True, None
        for index in range(args.pairs):
            order = ("base", "new") if index % 2 == 0 else ("new", "base")
            runs = {}
            for side in order:
                out = work / f"{side}-{index}.json"
                try:
                    document = run_once(trees[side], args.workload, out,
                                        passthrough)
                except RuntimeError as exc:
                    print(f"perf_ab: {exc}", file=sys.stderr)
                    return 1
                result = document["workloads"][args.workload]
                correct &= bool(result["correct"])
                runs[side] = result["runs"][0]
                declared = document["end_to_end"]
            pairs.append((runs["base"], runs["new"]))
            print(f"pair {index + 1}/{args.pairs} ({' first, '.join(order)} "
                  "second), base -> new: "
                  + ", ".join(f"{m['name']} {runs['base'][m['name']]:.4g} "
                              f"-> {runs['new'][m['name']]:.4g}"
                              for m in declared[:3]), flush=True)
    print(f"{args.workload}: base {commit[:12]} vs working tree, "
          f"{args.pairs} pairs, order alternating")
    print(format_summary(summarise(pairs, declared)))
    if not correct:
        print("perf_ab: a run reported \"correct\": false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
