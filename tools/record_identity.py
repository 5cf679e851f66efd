#!/usr/bin/env python
"""Record-identity check: hash what a source tree extracts and simulates,
case by case, and name every case and field in which two trees differ
(stdlib + numpy).

A refactor of the extraction or the simulation kernel is accepted on "the
records did not move": the same layout, extracted circuit and fault lists,
the same fault records and the same fig. 3 print rows, to the last bit.
This tool makes that check one command instead of a scratch script.

``snapshot --src TREE --cases ci|full --out F``
    Runs a fresh interpreter with ``TREE/src`` on ``PYTHONPATH`` and writes
    one sha256 per case to ``F`` (JSON), plus one per field so that
    ``compare`` can name what moved.

    * A *fault case* is one fault of the paper's fig. 5 VCO campaign, in
      one timestep mode under one executor.  It hashes every
      ``repro.anafault.checkpoint.RECORD_FIELDS`` field of the record
      except ``elapsed_seconds``, each as a full-precision repr.
    * A *fig. 3 case* is one nominal VCO transient at one control voltage
      in one timestep mode.  It hashes the print rows (time, every node
      voltage and branch current) and the run's ``stats`` except
      ``device_kernel``, which names the MOSFET lane kernel that ran
      (compiled or numpy; both compute the same floats), not a result.
    * An *identity case* (``identity/<mode>``) is the fig. 5 campaign of
      one timestep mode.  It hashes the settings text and the campaign
      fingerprint, which name checkpoints, shards and service jobs, so a
      fingerprint drift shows even when no record moves.
    * A *LIFT case* (``lift/<artefact>``) is one artefact of the VCO's
      layout-to-fault-list half: the generated layout
      (``repro.layout.textio.dumps``), the extracted netlist
      (``write_netlist``), the LVS summary and device map, and the L2RFM, GLRFM
      (realistic, after the coverage cut) and defect-driven (faultgen)
      fault lists.  A fault list hashes its ``dumps()`` text and, since
      that rounds to 6 digits, every fault field as a full-precision
      repr.  The cases are built only through ``build_vco_layout``,
      ``CATFlow(...).extract_faults()`` and ``generate_fault_list``,
      entry points every compared tree has.

    The ``ci`` set is the 24 most probable LIFT faults x {fixed, adaptive}
    x {``SerialExecutor()``, ``BatchedExecutor(8, early_abort=True)``},
    plus fig. 3 at 3.0 V and 4.5 V x {fixed, adaptive}.  The ``full`` set
    is all 99 faults x {fixed, adaptive} x {``SerialExecutor()``,
    ``BatchedExecutor(8)``, ``BatchedExecutor(8, workers=2)``}, plus the
    seven fig. 3 voltages x {fixed, adaptive}.  Both sets have one
    identity case per mode and the same six LIFT cases.

``compare A B``
    Prints every case whose digest differs (or that only one snapshot
    has), with the fields that differ, then a per-field tally.  Exit code
    1 when anything differs, 0 when the snapshots are identical.

``check --base REV [--cases ci|full]``
    Extracts ``REV`` with ``git archive`` into a temporary directory,
    snapshots it and the working tree, and compares the two (``make
    record-identity BASE=<rev> [CASES=ci]``).  Nothing is compared against
    a committed digest: floats are only reproducible on one host, so both
    sides are always computed on the same one.

Usage::

    python tools/record_identity.py check --base main --cases ci
    python tools/record_identity.py snapshot --src . --cases full --out head.json
    python tools/record_identity.py compare base.json head.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CASE_SETS = ("ci", "full")

#: The paper's fig. 5 campaign: 4 us at a 10 ns print step from a
#: discharged circuit, comparator tolerances 2 V / 0.2 us on the output.
TSTOP = 4e-6
TSTEP = 1e-8
AMPLITUDE_TOLERANCE = 2.0
TIME_TOLERANCE = 0.2e-6
#: The LTE settings of the adaptive fig. 3 / fig. 5 studies.
ADAPTIVE_TIMESTEP = dict(mode="adaptive", lte_reltol=3e-3, lte_abstol=1e-4,
                         dt_max=8e-8)
MODES = ("fixed", "adaptive")
FIG3_VOLTAGES = {"ci": (3.0, 4.5),
                 "full": (3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5)}
FAULT_COUNT = {"ci": 24, "full": None}
#: Executor name -> BatchedExecutor arguments (``None``: SerialExecutor).
EXECUTORS = {
    "ci": {"serial": None,
           "batched8-abort": dict(batch_width=8, early_abort=True)},
    "full": {"serial": None,
             "batched8": dict(batch_width=8),
             "batched8-workers2": dict(batch_width=8, workers=2)},
}


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def canonical(value) -> str:
    """Full-precision, type-stable text of a record value.

    Floats (numpy scalars included) print as the shortest repr that reads
    back to the same double, so a one-ulp change shows; mapping keys are
    sorted, so insertion order does not.
    """
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, int):
        return repr(int(value))
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, dict):
        items = sorted((canonical(key), canonical(item))
                       for key, item in value.items())
        return "{" + ", ".join(f"{key}: {item}" for key, item in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canonical(item) for item in value) + "]"
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return canonical(value.tolist())
    return repr(value)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_digest(fields: dict) -> dict:
    """``{"sha256": case digest, "fields": {name: field digest}}`` of one
    case given as ``{field name: bytes or value}``."""
    digests = {}
    for name, value in fields.items():
        data = value if isinstance(value, bytes) else \
            canonical(value).encode("utf-8")
        digests[name] = _sha256(data)
    whole = "\n".join(f"{name} {digest}"
                      for name, digest in sorted(digests.items()))
    return {"sha256": _sha256(whole.encode("utf-8")), "fields": digests}


def compare(first: dict, second: dict) -> list:
    """``(case, [field, ...])`` for every case the snapshots disagree on.

    A case only one snapshot has is reported with the field ``"<missing>"``.
    """
    cases_a, cases_b = first["cases"], second["cases"]
    differences = []
    for case in sorted(set(cases_a) | set(cases_b)):
        a, b = cases_a.get(case), cases_b.get(case)
        if a is None or b is None:
            differences.append((case, ["<missing>"]))
        elif a["sha256"] != b["sha256"]:
            names = sorted(set(a["fields"]) | set(b["fields"]))
            differences.append((case, [name for name in names
                                       if a["fields"].get(name)
                                       != b["fields"].get(name)]))
    return differences


def report(first: dict, second: dict, out=None) -> int:
    """Print the differences between two snapshots to ``out`` (standard
    output by default); returns the exit code."""
    out = out or sys.stdout
    differences = compare(first, second)
    for case, fields in differences:
        print(f"DIFF {case}: {', '.join(fields)}", file=out)
    tally: dict = {}
    for _, fields in differences:
        for name in fields:
            tally[name] = tally.get(name, 0) + 1
    total = len(set(first["cases"]) | set(second["cases"]))
    print(f"{len(differences)} of {total} cases differ", file=out)
    for name, count in sorted(tally.items()):
        print(f"  {name}: {count} case(s)", file=out)
    return 1 if differences else 0


# ---------------------------------------------------------------------------
# Cases (run inside the fresh interpreter, against the tree under test)
# ---------------------------------------------------------------------------

def _timestep(mode: str):
    from repro.spice import TransientOptions

    return (TransientOptions(**ADAPTIVE_TIMESTEP) if mode == "adaptive"
            else TransientOptions())


def identity_case(circuit, faults, settings) -> dict:
    """The identity case of one campaign: its settings text and its
    fingerprint."""
    from repro.anafault.checkpoint import _settings_text, campaign_fingerprint

    return case_digest({
        "settings_text": _settings_text(settings),
        "fingerprint": campaign_fingerprint(circuit, faults, settings)})


def fault_list_case(faults) -> dict:
    """The case of one fault list: its ``dumps()`` text and every field of
    every fault at full precision, in list order."""
    import dataclasses

    return case_digest({
        "text": faults.dumps().encode("utf-8"),
        "faults": [[fault.kind, fault.effective_weight,
                    [[field.name, getattr(fault, field.name)]
                     for field in dataclasses.fields(fault)]]
                   for fault in faults]})


def _lift_cases(flow, log) -> dict:
    from repro.anafault import generate_fault_list
    from repro.layout.textio import dumps
    from repro.spice import write_netlist

    start = time.perf_counter()
    faultgen = generate_fault_list(flow.layout, flow.extraction,
                                   schematic=flow.schematic, lvs=flow.lvs)
    cases = {
        "lift/layout": case_digest(
            {"text": dumps(flow.layout).encode("utf-8")}),
        "lift/netlist": case_digest(
            {"text": write_netlist(flow.extraction.circuit).encode("utf-8")}),
        "lift/lvs": case_digest({"summary": flow.lvs.summary(),
                                 "device_map": flow.lvs.device_map}),
        "lift/l2rfm": fault_list_case(flow.l2rfm_faults),
        "lift/glrfm": fault_list_case(flow.realistic_faults),
        "lift/faultgen": fault_list_case(faultgen),
    }
    log(f"lift: {len(cases)} artefacts in "
        f"{time.perf_counter() - start:.1f} s")
    return cases


def _fault_cases(case_set: str, circuit, faults, log) -> dict:
    from repro.anafault import (BatchedExecutor, CampaignSettings,
                                FaultSimulator, SerialExecutor,
                                ToleranceSettings)
    from repro.anafault.checkpoint import RECORD_FIELDS
    from repro.circuits import OUTPUT_NODE

    if FAULT_COUNT[case_set] is not None:
        faults = faults.top(FAULT_COUNT[case_set])
    fields = [name for name in RECORD_FIELDS if name != "elapsed_seconds"]
    cases = {}
    for mode in MODES:
        settings = CampaignSettings(
            tstop=TSTOP, tstep=TSTEP, use_ic=True,
            observation_nodes=(OUTPUT_NODE,),
            tolerances=ToleranceSettings(amplitude=AMPLITUDE_TOLERANCE,
                                         time=TIME_TOLERANCE),
            timestep=_timestep(mode))
        cases[f"identity/{mode}"] = identity_case(circuit, faults, settings)
        for name, arguments in EXECUTORS[case_set].items():
            executor = (SerialExecutor() if arguments is None
                        else BatchedExecutor(**arguments))
            start = time.perf_counter()
            result = FaultSimulator(circuit, faults, settings).run(
                executor=executor)
            log(f"{mode}/{name}: {len(faults)} faults in "
                f"{time.perf_counter() - start:.1f} s")
            for record in result.records:
                cases[f"fault/{mode}/{name}/{record.fault.fault_id}"] = \
                    case_digest({field: getattr(record, field, None)
                                 for field in fields})
    return cases


def _fig3_cases(case_set: str, log) -> dict:
    import numpy as np

    from repro.circuits import (VCOParameters, build_vco,
                                nominal_transient_settings)
    from repro.spice import TransientAnalysis

    cases = {}
    for mode in MODES:
        for voltage in FIG3_VOLTAGES[case_set]:
            circuit = build_vco(VCOParameters(control_voltage=voltage))
            result = TransientAnalysis(circuit, timestep=_timestep(mode),
                                       **nominal_transient_settings()).run()
            # TransientResult names its branch currents nowhere public.
            branches = getattr(result, "_branches", {})
            columns = ([result.time]
                       + [result.waveform(node).y for node in result.nodes]
                       + [branches[name] for name in sorted(branches)])
            rows = np.ascontiguousarray(np.column_stack(columns),
                                        dtype=np.float64)
            signals = ",".join(result.nodes + sorted(branches))
            stats = {key: value for key, value in result.stats.items()
                     if key != "device_kernel"}
            cases[f"fig3/{mode}/{voltage}"] = case_digest({
                "rows": signals.encode("utf-8") + rows.tobytes(),
                "stats": stats})
        log(f"fig3/{mode}: {len(FIG3_VOLTAGES[case_set])} transients")
    return cases


def run_cases(case_set: str) -> dict:
    """Every case of ``case_set`` against the ``repro`` on ``sys.path``."""
    import repro
    from repro.cat import CATFlow
    from repro.circuits import build_vco_layout

    def log(message: str) -> None:
        print(f"  {message}", file=sys.stderr, flush=True)

    start = time.perf_counter()
    circuit, layout = build_vco_layout()
    flow = CATFlow(circuit, layout).extract_faults()
    cases = {**_lift_cases(flow, log),
             **_fault_cases(case_set, circuit, flow.realistic_faults, log),
             **_fig3_cases(case_set, log)}
    return {"case_set": case_set,
            "src": str(pathlib.Path(repro.__file__).resolve().parent.parent),
            "seconds": round(time.perf_counter() - start, 1),
            "cases": cases}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def snapshot(tree: pathlib.Path, case_set: str, out: pathlib.Path) -> dict:
    """Snapshot ``tree`` in a fresh interpreter; returns the snapshot."""
    src = pathlib.Path(tree).resolve() / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"record_identity: {src} holds no repro package")
    env = dict(os.environ, PYTHONPATH=str(src))
    print(f"snapshot of {src} ({case_set} cases)", file=sys.stderr,
          flush=True)
    subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()),
                    "cases", "--cases", case_set, "--out", str(out)],
                   env=env, check=True)
    return json.loads(pathlib.Path(out).read_text(encoding="utf-8"))


def extract(revision: str, into: pathlib.Path) -> str:
    """``git archive`` of ``revision`` extracted into ``into``; the full
    commit id.  :class:`ValueError` when ``revision`` names no commit."""
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    if resolved.returncode != 0:
        raise ValueError(f"{revision!r} is not a git revision "
                         "(give BASE=<rev>)")
    commit = resolved.stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=REPO_ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def check(base: str, case_set: str) -> int:
    """Snapshot ``git archive base`` and the working tree; compare."""
    with tempfile.TemporaryDirectory(prefix="record-identity-") as scratch:
        work = pathlib.Path(scratch)
        try:
            commit = extract(base, work / "base")
        except ValueError as exc:
            raise SystemExit(f"record_identity: {exc}") from None
        start = time.perf_counter()
        first = snapshot(work / "base", case_set, work / "base.json")
        second = snapshot(REPO_ROOT, case_set, work / "head.json")
        print(f"base {commit[:12]} vs working tree, {case_set} cases, "
              f"{time.perf_counter() - start:.0f} s")
        return report(first, second)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    take = commands.add_parser("snapshot", help="hash every case of a tree")
    take.add_argument("--src", type=pathlib.Path, required=True,
                      help="tree whose src/ is simulated")
    take.add_argument("--cases", choices=CASE_SETS, default="ci")
    take.add_argument("--out", type=pathlib.Path, required=True)
    diff = commands.add_parser("compare", help="name the differing cases")
    diff.add_argument("first", type=pathlib.Path)
    diff.add_argument("second", type=pathlib.Path)
    both = commands.add_parser("check",
                               help="snapshot a git revision and the "
                                    "working tree, then compare")
    both.add_argument("--base", required=True)
    both.add_argument("--cases", choices=CASE_SETS, default="ci")
    inner = commands.add_parser("cases", help=argparse.SUPPRESS)
    inner.add_argument("--cases", choices=CASE_SETS, required=True)
    inner.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    if args.command == "snapshot":
        snapshot(args.src, args.cases, args.out)
        return 0
    if args.command == "compare":
        return report(*(json.loads(path.read_text(encoding="utf-8"))
                        for path in (args.first, args.second)))
    if args.command == "check":
        return check(args.base, args.cases)
    args.out.write_text(json.dumps(run_cases(args.cases), indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
