"""Compare two result documents written by ``run.py --out``.

    python3 benchmarks/perf/diff.py BASE.json NEW.json

For every workload in both documents, each end-to-end metric's median in
NEW is judged against BASE and the metric's bound:

* ``regressed``  -- worse by more than the bound;
* ``improved``   -- better by more than the bound, and by more than the
  run-to-run spread (distance between quartiles over median) or with
  every NEW run better than every BASE run;
* ``unresolved`` -- not regressed, but the spread is wider than the bound
  (or unknown, with fewer than three runs a side), unless every NEW run
  reads better than every BASE run;
* ``unchanged``  -- otherwise.

Traced documents get a per-layer table of median deltas instead.  The
exit status is 1 when a metric regressed and 2 when the documents cannot
be compared: smoke against full, different seeds or benchmark versions,
traced against untraced, or different metric declarations.
"""

from __future__ import annotations

import json
import statistics
import sys


class Incomparable(Exception):
    """The two documents do not measure the same thing."""


def check_comparable(base: dict, new: dict) -> None:
    for key in ("benchmark_version", "smoke", "seed", "trace"):
        if base["stamp"][key] != new["stamp"][key]:
            raise Incomparable(f"{key} differs: {base['stamp'][key]!r} vs "
                               f"{new['stamp'][key]!r}")
    for key in ("end_to_end", "per_layer"):
        if base[key] != new[key]:
            raise Incomparable(f"the {key} metric declarations differ")


def spread(values: list) -> float | None:
    """Distance between the quartiles over the median (None below 3 runs)."""
    if len(values) < 3:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base_runs: list, new_runs: list, bound: float,
            better: str) -> tuple[float, str]:
    """``(relative change, verdict)``; a positive change is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(base_runs)
    change = sign * (statistics.median(new_runs) - base) / base
    widths = [spread(base_runs), spread(new_runs)]
    noise = None if None in widths else max(widths)
    all_better = (max(sign * v for v in new_runs)
                  < min(sign * v for v in base_runs))
    if change > bound:
        return change, "regressed"
    if change < -bound and (all_better or (noise is not None
                                          and -change > noise)):
        return change, "improved"
    if (noise is None or noise > bound) and not all_better:
        return change, "unresolved"
    return change, "unchanged"


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any metric regressed."""
    check_comparable(base, new)
    traced = base["stamp"]["trace"]
    declared = base["per_layer" if traced else "end_to_end"]
    lines, regressed = [], False
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            lines.append(f"{workload}: missing from the new document")
            continue
        old_runs = base["workloads"][workload]["runs"]
        new_runs = new["workloads"][workload]["runs"]
        lines.append(f"{workload}  ({len(old_runs)} vs {len(new_runs)} "
                     "runs)")
        for metric in declared:
            name = metric["name"]
            before = [run[name] for run in old_runs]
            after = [run[name] for run in new_runs]
            old, now = statistics.median(before), statistics.median(after)
            if traced:
                relative = f"{(now - old) / old:+8.1%}" if old else "     n/a"
                lines.append(f"  {name:<28}{old:>14.6g}{now:>14.6g}"
                             f"{now - old:>+14.6g}{relative} {metric['unit']}")
                continue
            change, judged = verdict(before, after, metric["bound"],
                                     metric["better"])
            regressed |= judged == "regressed"
            direction = "worse" if change > 0 else "better"
            lines.append(f"  {name:<16}{old:>12.6g}{now:>12.6g} "
                         f"{metric['unit']:<4}{abs(change):>7.1%} {direction:<6}"
                         f"  bound {metric['bound']:.0%}  {judged}")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    try:
        lines, regressed = compare(*documents)
    except Incomparable as exc:
        print(f"diff.py: not comparable: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
