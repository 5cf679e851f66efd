"""``python -m repro.anafault`` — the cross-host campaign driver.

The paper's AnaFAULT was extended to run fault campaigns on a workstation
cluster (section II); this CLI is that extension's reproduction: two hosts
can split one campaign with nothing but a shared netlist, a shared LIFT
fault-list file and an rsync'd directory.  Three subcommands mirror the
plan/execute/collect stages of :mod:`repro.anafault.executors`:

``run``
    the single-host campaign (checkpointed, batched, pool-parallel),
``shard``
    one deterministic ``--shard-index/--shard-count`` slice of the fault
    list, written as a fingerprint-keyed JSONL shard file,
``merge``
    N shard files reassembled into the unsharded result — refusing
    fingerprint mismatches and overlapping shards, reporting missing-id
    holes, optionally re-emitting the merged records as a checkpoint file
    (``--out``) and verifying them against a reference run (``--verify``).

A ``generate`` subcommand closes the loop from the other end: it reads a
layout text file, extracts its connectivity, runs the defect-driven fault
generator (:mod:`repro.anafault.faultgen` — generation, collapsing and
optional importance sampling) and writes a campaign-ready weighted LIFT
fault list, so a campaign needs zero hand-written faults (see
``docs/faultgen.md``).

A further subcommand, ``lint``, runs the static analyzer (:mod:`repro.lint`)
over a netlist and optional fault-list file without simulating anything;
``run`` and ``shard`` apply the same checks as their campaign preflight
(``--preflight error|warn|off``, default ``error``) and refuse to start a
campaign whose netlist or fault list carries error-severity diagnostics.

Four more subcommands drive the **campaign service** — the lease-based
scheduler daemon of :mod:`repro.anafault.service` (see
``docs/service.md``): ``serve`` runs the daemon over a spool directory,
``work`` runs the pull-based worker loop against it, ``submit`` submits a
campaign (by default waiting for the result and writing the standard
overview/checkpoint, exactly like ``run`` — just executed by remote
workers), and ``status`` prints the daemon's JSON status.

A minimal two-host session (see ``docs/campaigns.md`` for the full
walkthrough)::

    host-a$ python -m repro.anafault shard vco.cir vco.lift \
                --shard-index 0 --shard-count 2 --out shard0.jsonl
    host-b$ python -m repro.anafault shard vco.cir vco.lift \
                --shard-index 1 --shard-count 2 --out shard1.jsonl
    host-a$ rsync host-b:shard1.jsonl .
    host-a$ python -m repro.anafault merge vco.cir vco.lift \
                shard0.jsonl shard1.jsonl --out merged.jsonl

Campaign identity is enforced, not assumed: every shard file carries the
campaign fingerprint (circuit + fault list + verdict-relevant settings),
so hosts that drifted apart refuse to merge instead of mixing results.
The transient window defaults to the netlist's ``.tran`` card (and ``.ic``
cards seed the initial conditions), so the settings flags usually stay at
their defaults — but every flag that changes what is simulated must be
repeated identically on every host.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from ..errors import ReproError
from ..lift.faultlist import FaultList
from ..lint import lint_fault_list, lint_netlist_text
from ..spice import TransientOptions
from ..spice.parser import parse_netlist_file
from ..units import parse_value
from .calibration import calibrate_tolerance
from .checkpoint import (CampaignCheckpoint, campaign_fingerprint,
                         header_slice, read_header)
from .comparator import ToleranceSettings
from .executors import BatchedExecutor, merge_shards
from .models import RESISTOR_MODEL, SOURCE_MODEL, FaultModelOptions
from .remote import (RemoteExecutor, ServiceClient, WorkerClient,
                     chaos_crash_after, chaos_hang_after)
from .report import format_overview
from .service import serve as _build_service_server
from .simulator import CampaignResult, CampaignSettings, FaultSimulator
from .wire import parse_address, settings_to_wire

#: Line a ``work --chaos-hang-after`` worker prints the moment it starts
#: hanging while holding a live lease — the chaos harness (tests and the
#: CI ``campaign-service`` job) waits for it before delivering SIGKILL.
CHAOS_HANG_MARKER = "chaos: hanging while holding a lease"

#: Record fields compared by ``merge --verify`` — the verdict-level
#: identity of a record (no timing or IPC telemetry).
VERDICT_FIELDS = ("status", "detection_time", "detected_on", "max_deviation")


def _engineering_value(text: str) -> float:
    """``argparse`` type for SPICE engineering values (``4u``, ``10n``);
    converts :class:`~repro.errors.UnitError` into the usage error
    argparse knows how to present."""
    try:
        return parse_value(text)
    except ReproError as exc:
        # ArgumentTypeError is the argparse protocol for usage errors.
        raise argparse.ArgumentTypeError(
            str(exc)) from exc  # repro-lint: allow=raise-type


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("netlist", help="SPICE netlist of the circuit under "
                        "test (shared verbatim between hosts)")
    parser.add_argument("faults", help="LIFT fault-list file "
                        "(FaultList.dump output, shared verbatim)")
    simulate = parser.add_argument_group(
        "simulation settings (identical on every host — they are part of "
        "the campaign fingerprint)")
    simulate.add_argument("--tstop", type=_engineering_value, default=None,
                          metavar="T", help="transient stop time, e.g. 4u "
                          "(default: the netlist's .tran card)")
    simulate.add_argument("--tstep", type=_engineering_value, default=None,
                          metavar="T", help="transient print step, e.g. 10n "
                          "(default: the netlist's .tran card)")
    simulate.add_argument("--observe", default=None, metavar="NODES",
                          help="comma-separated observation nodes "
                          "(default: the paper's node 11)")
    simulate.add_argument("--amplitude-tolerance", type=float,
                          default=ToleranceSettings.amplitude, metavar="V",
                          help="comparator amplitude tolerance [V] "
                          "(default: %(default)s)")
    simulate.add_argument("--time-tolerance", type=_engineering_value,
                          default=ToleranceSettings.time, metavar="T",
                          help="comparator persistence-time tolerance "
                          "(default: %(default)s s)")
    simulate.add_argument("--timestep", default="fixed",
                          choices=("fixed", "adaptive"),
                          help="integration policy: 'fixed' locks every "
                          "internal step to the print grid (the legacy "
                          "driver), 'adaptive' enables LTE-controlled "
                          "variable-step, variable-order BDF integration "
                          "(default: %(default)s; see docs/integration.md)")
    simulate.add_argument("--lte-reltol", type=float, default=None,
                          metavar="R", help="relative local-truncation-"
                          "error tolerance of the adaptive controller "
                          "(needs --timestep adaptive; default: "
                          f"{TransientOptions.lte_reltol})")
    simulate.add_argument("--no-ic", action="store_true",
                          help="start from a DC operating point instead of "
                          "the netlist's initial conditions")
    simulate.add_argument("--solver-backend", default=None,
                          choices=("auto", "dense", "sparse"),
                          help="linear-solver backend for every transient")
    simulate.add_argument("--top", type=int, default=None, metavar="N",
                          help="simulate only the N most probable faults "
                          "(applied identically on every host)")
    simulate.add_argument("--preflight", default="error",
                          choices=("error", "warn", "off"),
                          help="static campaign preflight (repro.lint): "
                          "'error' refuses to run on error-severity "
                          "diagnostics, 'warn' prints them and proceeds, "
                          "'off' skips the analysis (default: %(default)s; "
                          "the library API defaults to 'warn' — resuming a "
                          "pre-upgrade checkpoint needs --preflight warn)")


def _load_campaign(args) -> FaultSimulator:
    """Build the simulator (circuit + fault list + settings) a subcommand
    operates on."""
    parsed = parse_netlist_file(args.netlist)
    fault_path = pathlib.Path(args.faults)
    # The fault-list *name* is part of the serialised list and therefore of
    # the campaign fingerprint; pin it to a constant so campaign identity
    # depends on the file's *content* only — hosts may keep the file under
    # any path or filename and still shard/merge together.
    fault_list = FaultList.loads(fault_path.read_text(encoding="utf-8"),
                                 name="campaign fault list")
    if args.top is not None:
        fault_list = fault_list.top(args.top)

    tstop, tstep = args.tstop, args.tstep
    if tstop is None or tstep is None:
        for request in parsed.analyses:
            if request.kind == "tran" and len(request.args) >= 2:
                # .tran <tstep> <tstop>
                tstep = tstep if tstep is not None else parse_value(
                    request.args[0])
                tstop = tstop if tstop is not None else parse_value(
                    request.args[1])
                break
    if tstop is None or tstep is None:
        raise ReproError(
            "no transient window: pass --tstop/--tstep or put a "
            ".tran card in the netlist")

    if args.lte_reltol is not None and args.timestep != "adaptive":
        raise ReproError(
            "--lte-reltol tunes the adaptive LTE controller; it needs "
            "--timestep adaptive (the fixed grid has no error control)")
    timestep = TransientOptions(mode=args.timestep)
    if args.lte_reltol is not None:
        timestep.lte_reltol = args.lte_reltol

    defaults = CampaignSettings()
    observe = (tuple(node.strip() for node in args.observe.split(",")
                     if node.strip())
               if args.observe else defaults.observation_nodes)
    settings = CampaignSettings(
        tstop=float(tstop), tstep=float(tstep),
        use_ic=not args.no_ic,
        observation_nodes=observe,
        initial_conditions=dict(parsed.initial_conditions),
        tolerances=ToleranceSettings(args.amplitude_tolerance,
                                     float(args.time_tolerance)),
        solver_backend=args.solver_backend,
        timestep=timestep,
        preflight=args.preflight)
    return FaultSimulator(parsed.circuit, fault_list, settings)


def _write_records(result: CampaignResult, path, fingerprint: str) -> int:
    """Write the live records of ``result`` as a checkpoint-format JSONL
    file — deliberately unsharded: a merge output is the whole campaign,
    re-runnable with ``run --checkpoint`` and mergeable again.  Returns
    the number of records written."""
    path = pathlib.Path(path)
    if path.exists():
        path.unlink()  # a merge output is a fresh artefact, never a resume
    store = CampaignCheckpoint(path)
    store.start(fingerprint, campaign=result.fault_list.name)
    written = 0
    try:
        for record in result.records:
            if record is not None:
                store.append(record)
                written += 1
    finally:
        store.close()
    return written


def _verify_against(result: CampaignResult, reference_path,
                    fingerprint: str, out) -> int:
    """Compare the merged records against a reference checkpoint file
    (verdict fields only); returns the number of mismatching fault ids.

    The comparison is two-sided: a reference record with no merged
    counterpart (a hole from a missing shard) counts as a mismatch too,
    so an incomplete merge can never verify clean.
    """
    reference = CampaignCheckpoint(reference_path).load(fingerprint)
    mismatches = 0
    merged_ids = set()
    for record in result.records:
        if record is None:
            continue
        merged_ids.add(record.fault.fault_id)
        expected = reference.get(record.fault.fault_id)
        if expected is None:
            print(f"verify: fault id {record.fault.fault_id} missing from "
                  f"{reference_path}", file=out)
            mismatches += 1
            continue
        for name in VERDICT_FIELDS:
            if getattr(record, name) != expected.get(name):
                print(f"verify: fault id {record.fault.fault_id} differs on "
                      f"{name}: {getattr(record, name)!r} != "
                      f"{expected.get(name)!r}", file=out)
                mismatches += 1
                break
    for fault_id in sorted(set(reference) - merged_ids):
        print(f"verify: fault id {fault_id} of {reference_path} has no "
              "merged record (missing shard?)", file=out)
        mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _print_preflight(result: CampaignResult, out) -> None:
    """Surface the preflight diagnostics a ``warn``-mode campaign carried
    through anyway (``error`` mode never reaches this point: the refusal
    lists every diagnostic in the :class:`~repro.errors.PreflightError`)."""
    for diagnostic in result.preflight_diagnostics:
        print(f"preflight: {diagnostic.format()}", file=out)
    if result.preflight_diagnostics:
        print("", file=out)


def _calibrate_or_refuse(simulator: FaultSimulator, out):
    """Run the verdict-tolerance calibration pass a ``--calibrate``
    campaign leads with; returns the report, or ``None`` when calibration
    failed and the campaign must be refused (the caller exits 1)."""
    report = calibrate_tolerance(simulator.circuit, simulator.fault_list,
                                 simulator.settings)
    print(report.summary(), file=out)
    if not report.passed:
        print("calibration failed: the adaptive tolerance moves verdicts "
              "on the probe subset; tighten --lte-reltol or run "
              "--timestep fixed", file=out)
        return None
    return report


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags ``run`` and ``shard`` share: how to execute (free per
    host — records match a serial run) and the calibration gate."""
    execute = parser.add_argument_group("execution (see docs/batching.md)")
    execute.add_argument("--workers", type=int, default=1, metavar="N",
                         help="process-pool workers (default: in-process)")
    execute.add_argument("--batch-width", type=int, default=1, metavar="K",
                         help="simulate up to K fault variants in lockstep "
                         "(default: one at a time)")
    execute.add_argument("--early-abort", action="store_true",
                         help="stop a variant as soon as its verdict is "
                         "certain (verdicts and detection times are "
                         "unchanged; deviations and step counters cover "
                         "the simulated prefix only)")
    parser.add_argument("--calibrate", action="store_true",
                        help="with --timestep adaptive: bound the verdict "
                        "sensitivity on a seeded probe subset first and "
                        "refuse the campaign if calibration fails (see "
                        "docs/campaigns.md)")


def _run_campaign(args, out, **run_options) -> CampaignResult | None:
    """The body ``run`` and ``shard`` share: build the executor (a count
    below 1 is refused before anything simulates) and the simulator, pass
    the ``--calibrate`` gate, run and print the preflight diagnostics.
    ``None`` means calibration refused the campaign (exit 1)."""
    executor = None  # the defaultable path REPRO_FORCE_BATCHED may batch
    if (args.workers, args.batch_width, args.early_abort) != (1, 1, False):
        executor = BatchedExecutor(batch_width=args.batch_width,
                                   early_abort=args.early_abort,
                                   workers=args.workers)
    simulator = _load_campaign(args)
    report = None
    if args.calibrate:
        report = _calibrate_or_refuse(simulator, out)
        if report is None:
            return None
    result = simulator.run(executor=executor, **run_options)
    if report is not None:
        result.calibration.update(report.to_dict())
    _print_preflight(result, out)
    return result


def _cmd_run(args, out) -> int:
    result = _run_campaign(args, out, checkpoint=args.checkpoint)
    if result is None:
        return 1
    print(format_overview(result), file=out)
    return 0


def _cmd_shard(args, out) -> int:
    result = _run_campaign(args, out, checkpoint=args.out,
                           shard_index=args.shard_index,
                           shard_count=args.shard_count)
    if result is None:
        return 1
    counts = ", ".join(f"{status}={count}" for status, count
                       in sorted(result.count_by_status().items()))
    print(f"shard {args.shard_index}/{args.shard_count}: "
          f"{result.telemetry()['faults']} of {len(result.fault_list)} "
          f"faults ({result.checkpoint_skipped} resumed) -> {args.out}",
          file=out)
    print(f"fingerprint {read_header(args.out)['fingerprint']}", file=out)
    print(f"verdicts: {counts}", file=out)
    return 0


def _cmd_merge(args, out) -> int:
    simulator = _load_campaign(args)
    settings = simulator.settings
    fingerprint = campaign_fingerprint(simulator.circuit,
                                       simulator.fault_list, settings)
    for path in args.shards:
        header = read_header(path) or {}
        shard = ("shard {}/{}".format(*header_slice(path, header))
                 if "shard_index" in header else "unsharded")
        print(f"reading {path}: {shard}, fingerprint "
              f"{header.get('fingerprint', '?')}", file=out)
    if args.out and any(pathlib.Path(args.out).resolve()
                        == pathlib.Path(shard).resolve()
                        for shard in args.shards):
        raise ReproError(
            f"--out {args.out} names one of the input shard files; "
            "writing the merged result there would destroy that host's "
            "resume checkpoint — pick a fresh output path")
    if (args.out and args.verify and pathlib.Path(args.out).resolve()
            == pathlib.Path(args.verify).resolve()):
        raise ReproError(
            f"--out and --verify both name {args.out}; the merge would "
            "overwrite the reference and then verify against itself — "
            "pick a fresh output path")
    result = merge_shards(simulator.circuit, simulator.fault_list, settings,
                          args.shards, require_complete=args.require_complete)
    missing = [fault.fault_id for fault, record
               in zip(result.fault_list, result.records) if record is None]
    if missing:
        print(f"warning: merge left {len(missing)} hole(s) for fault "
              f"id(s) {missing} — a shard file is missing", file=out)
    print("", file=out)
    print(format_overview(result), file=out)
    if args.out:
        written = _write_records(result, args.out, fingerprint)
        print(f"\nmerged {written} record(s) -> {args.out}", file=out)
    if args.verify:
        mismatches = _verify_against(result, args.verify, fingerprint, out)
        if mismatches:
            print(f"verify: {mismatches} record(s) differ from "
                  f"{args.verify}", file=out)
            return 1
        live = len([r for r in result.records if r is not None])
        print(f"verify: all {live} merged record(s) match {args.verify}",
              file=out)
    return 0


def _cmd_generate(args, out) -> int:
    """Layout in, campaign-ready weighted LIFT fault list out.

    Reads the layout text file, extracts connectivity, runs the
    defect-driven generator of :mod:`repro.anafault.faultgen`
    (generation, collapsing, optional importance sampling) and writes the
    resulting fault list to ``--out``.  With ``--netlist`` the faults are
    expressed against the LVS-matched schematic circuit (the netlist a
    campaign will simulate); without it they target the extracted circuit
    itself.
    """
    from ..extract import compare, extract_netlist
    from ..layout.textio import read_file
    from .faultgen import FaultGenOptions, generate_fault_list

    layout = read_file(args.layout)
    extraction = extract_netlist(layout)
    schematic = lvs = None
    if args.netlist is not None:
        schematic = parse_netlist_file(args.netlist).circuit
        lvs = compare(extraction.circuit, schematic)
    defaults = FaultGenOptions()
    options = FaultGenOptions(
        min_weight=(defaults.min_weight if args.min_weight is None
                    else args.min_weight),
        monte_carlo_samples=(defaults.monte_carlo_samples
                             if args.monte_carlo is None
                             else args.monte_carlo))
    fault_list = generate_fault_list(
        layout, extraction, schematic=schematic, lvs=lvs, options=options,
        collapse=not args.no_collapse, sample=args.sample,
        sample_seed=args.seed)
    fault_list.dump(args.out)

    candidates = int(fault_list.metadata.get("faultgen_candidates", 0))
    collapsed = int(fault_list.metadata.get("faultgen_collapsed", 0))
    reduction = (1.0 - collapsed / candidates) if candidates else 0.0
    print(f"{args.layout}: {candidates} candidate faults -> "
          f"{collapsed} after collapsing "
          f"({reduction:.0%} reduction)", file=out)
    if args.sample > 0:
        print(f"importance sample: {args.sample} draws -> "
              f"{len(fault_list)} unique faults", file=out)
    print(fault_list.summary(), file=out)
    print(f"total weight {fault_list.total_weight():.4g} -> {args.out}",
          file=out)
    return 0


def _cmd_lint(args, out) -> int:
    """Static campaign preflight as a standalone subcommand.

    Unlike ``run``/``shard`` this never simulates, so no transient window
    (``.tran`` card or ``--tstop/--tstep``) is required — a netlist alone
    is a valid lint target, a fault-list file extends the analysis to the
    campaign.  Exit code 0 means clean (or warnings only), 1 means at
    least one error-severity diagnostic, 2 means the inputs themselves
    could not be read.
    """
    text = pathlib.Path(args.netlist).read_text(encoding="utf-8")
    circuit, report = lint_netlist_text(text)
    if args.faults is not None:
        fault_list = FaultList.loads(
            pathlib.Path(args.faults).read_text(encoding="utf-8"),
            name="campaign fault list")
        if circuit is not None:
            model = (FaultModelOptions.source()
                     if args.fault_model == SOURCE_MODEL
                     else FaultModelOptions.resistor())
            report.extend(lint_fault_list(circuit, fault_list, model))
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True),
              file=out)
    else:
        if len(report):
            print(report.format_text(), file=out)
        print(f"{args.netlist}: {report.summary()}", file=out)
    return 1 if report.has_errors else 0


def _service_options(args) -> dict:
    """The per-campaign scheduler overrides a ``submit`` carries (only the
    flags the user actually set — the daemon's defaults win otherwise)."""
    options = {}
    if args.lease_ttl is not None:
        options["lease_ttl"] = float(args.lease_ttl)
    if args.max_attempts is not None:
        options["max_attempts"] = int(args.max_attempts)
    if args.lease_size is not None:
        options["lease_size"] = int(args.lease_size)
    return options


def _cmd_serve(args, out) -> int:
    """Run the scheduler daemon until interrupted (or told to shut down
    over the wire)."""
    server = _build_service_server(args.spool, host=args.host,
                                   port=args.port, lease_ttl=args.lease_ttl,
                                   max_attempts=args.max_attempts,
                                   lease_size=args.lease_size)
    host, port = server.address
    print(f"campaign service listening on {host}:{port} "
          f"(spool {server.service.spool}, "
          f"{len(server.service.jobs)} job(s) restored)", file=out,
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close()
    return 0


def _cmd_work(args, out) -> int:
    """Run the pull-based worker loop against a daemon."""
    if args.chaos_hang_after is not None and args.chaos_crash_after is not None:
        raise ReproError("--chaos-hang-after and --chaos-crash-after are "
                         "mutually exclusive (one chaos mode per worker)")
    chaos = None
    if args.chaos_hang_after is not None:
        chaos = chaos_hang_after(args.chaos_hang_after,
                                 marker=CHAOS_HANG_MARKER)
    elif args.chaos_crash_after is not None:
        chaos = chaos_crash_after(args.chaos_crash_after)
    worker = WorkerClient(parse_address(args.addr),
                          worker_id=args.worker_id, poll=args.poll,
                          chaos=chaos)
    print(f"worker {worker.worker_id} polling {args.addr}", file=out,
          flush=True)
    completed = worker.run(exit_when_done=args.exit_when_done,
                           max_faults=args.max_faults)
    print(f"worker {worker.worker_id}: {completed} fault(s) completed",
          file=out)
    return 0


def _cmd_submit(args, out) -> int:
    """Submit a campaign to a daemon; by default wait for the workers to
    finish it and report exactly like ``run`` (checkpoint included)."""
    simulator = _load_campaign(args)
    report = None
    if args.calibrate:
        # Calibration simulates the probe subset locally — cheap next to
        # the campaign, and it gates the submit the same way it gates run.
        report = _calibrate_or_refuse(simulator, out)
        if report is None:
            return 1
    address = parse_address(args.addr)
    if args.no_wait:
        from ..spice.writer import write_netlist

        status = ServiceClient(address).submit(
            write_netlist(simulator.circuit), simulator.fault_list.dumps(),
            settings_to_wire(simulator.settings), **_service_options(args))
        print(json.dumps(status, indent=2, sort_keys=True), file=out)
        return 0
    executor = RemoteExecutor(address, wait_timeout=args.wait_timeout,
                              **_service_options(args))
    result = simulator.run(executor=executor, checkpoint=args.out)
    if report is not None:
        result.calibration.update(report.to_dict())
    _print_preflight(result, out)
    print(format_overview(result), file=out)
    service = result.service
    print(f"\nservice: {service.get('leases_granted', 0)} lease(s), "
          f"{service.get('leases_expired', 0)} expired, "
          f"{service.get('retries', 0)} retried, "
          f"{service.get('duplicates', 0)} duplicate completion(s), "
          f"{len(service.get('workers', {}))} worker(s)", file=out)
    if args.out:
        print(f"records -> {args.out}", file=out)
    return 0


def _cmd_status(args, out) -> int:
    """Print a daemon's status (all jobs, or one job) as JSON."""
    payload = ServiceClient(parse_address(args.addr)).status(args.job)
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.anafault`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.anafault",
        description="AnaFAULT campaign driver: run, shard and merge "
        "fault-simulation campaigns across hosts.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a full campaign on this host",
        description="Run the whole campaign on this host and print the "
        "overview report.")
    _add_campaign_arguments(run)
    _add_execution_arguments(run)
    run.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="JSONL checkpoint to append to / resume from")

    shard = commands.add_parser(
        "shard", help="run one shard of a campaign",
        description="Simulate the deterministic round-robin slice "
        "faults[shard_index::shard_count] and write it as a "
        "fingerprint-keyed JSONL shard file (re-running resumes from it).")
    _add_campaign_arguments(shard)
    shard.add_argument("--shard-index", type=int, required=True, metavar="I")
    shard.add_argument("--shard-count", type=int, required=True, metavar="N")
    shard.add_argument("--out", required=True, metavar="PATH",
                       help="shard JSONL output file")
    _add_execution_arguments(shard)

    merge = commands.add_parser(
        "merge", help="merge shard files into one result",
        description="Assemble shard JSONL files into the unsharded "
        "campaign result (no simulation happens; fingerprints must "
        "match).")
    _add_campaign_arguments(merge)
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard JSONL files to merge")
    merge.add_argument("--out", default=None, metavar="PATH",
                       help="write the merged records as a checkpoint-"
                       "format JSONL file")
    merge.add_argument("--require-complete", action="store_true",
                       help="fail when any fault id has no record")
    merge.add_argument("--verify", default=None, metavar="PATH",
                       help="compare verdicts against a reference "
                       "checkpoint (exit 1 on any mismatch)")

    generate = commands.add_parser(
        "generate", help="generate a weighted fault list from a layout",
        description="Run the defect-driven fault generator: enumerate "
        "weighted candidate faults from a layout text file, collapse "
        "equivalent candidates, optionally importance-sample the "
        "universe, and write a campaign-ready LIFT fault list (see "
        "docs/faultgen.md).")
    generate.add_argument("layout", help="layout text file to generate from")
    generate.add_argument("--netlist", default=None, metavar="PATH",
                          help="schematic netlist the faults should target "
                          "(LVS-matched; default: the extracted circuit)")
    generate.add_argument("--out", required=True, metavar="PATH",
                          help="LIFT fault-list output file")
    generate.add_argument("--sample", type=int, default=0, metavar="N",
                          help="draw N weight-proportional faults with "
                          "replacement instead of keeping the whole "
                          "universe (default: keep all)")
    generate.add_argument("--seed", type=int, default=None, metavar="S",
                          help="importance-sampling seed (default: the "
                          "generator seed)")
    generate.add_argument("--min-weight", type=float, default=None,
                          metavar="W", help="drop collapsed faults below "
                          "this aggregated weight (default: 1e-9)")
    generate.add_argument("--no-collapse", action="store_true",
                          help="keep one fault per geometric site instead "
                          "of one per equivalence class")
    generate.add_argument("--monte-carlo", type=int, default=None,
                          metavar="N", help="Monte-Carlo draws per "
                          "irregular bridge pair (default: 256; 0 skips "
                          "irregular geometry)")

    lint = commands.add_parser(
        "lint", help="statically check a netlist (and fault list)",
        description="Run the static analyzer (repro.lint) over a netlist "
        "and, optionally, a LIFT fault-list file — the same checks "
        "run/shard apply as their campaign preflight, without simulating "
        "anything.  Exit 0: clean or warnings only; exit 1: error-severity "
        "diagnostics; exit 2: unreadable inputs.")
    lint.add_argument("netlist", help="SPICE netlist to check")
    lint.add_argument("faults", nargs="?", default=None,
                      help="optional LIFT fault-list file to check against "
                      "the netlist")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="report format (default: %(default)s)")
    lint.add_argument("--fault-model", default=RESISTOR_MODEL,
                      choices=(RESISTOR_MODEL, SOURCE_MODEL),
                      help="fault model assumed by the fault-topology rule "
                      "(default: %(default)s)")

    serve = commands.add_parser(
        "serve", help="run the campaign scheduler daemon",
        description="Run the lease-based campaign scheduler daemon over a "
        "spool directory (jobs persist across restarts; see "
        "docs/service.md).  Prints 'listening on HOST:PORT' once bound; "
        "--port 0 picks a free port.")
    serve.add_argument("--spool", required=True, metavar="DIR",
                       help="spool directory for job queues/descriptors")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=7901, metavar="PORT",
                       help="bind port; 0 picks a free one "
                       "(default: %(default)s)")
    serve.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                       help="seconds before a silent worker's lease expires "
                       "and its faults are re-queued (default: %(default)s)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="bounded attempts per fault before it is "
                       "recorded as exhausted (default: %(default)s)")
    serve.add_argument("--lease-size", type=int, default=4, metavar="K",
                       help="cost-balanced lease budget: up to K "
                       "mean-cost faults per slice (default: %(default)s)")

    work = commands.add_parser(
        "work", help="run a worker loop against the daemon",
        description="Pull-based worker: poll the daemon for leases, "
        "simulate the leased faults in-process, report each record back.  "
        "The --chaos-* flags deliberately misbehave mid-campaign and exist "
        "for the fault-injection test harness.")
    work.add_argument("--addr", required=True, metavar="HOST:PORT",
                      help="daemon address")
    work.add_argument("--worker-id", default=None, metavar="ID",
                      help="worker identity (default: hostname-pid)")
    work.add_argument("--poll", type=float, default=0.25, metavar="S",
                      help="idle poll interval (default: %(default)s)")
    work.add_argument("--exit-when-done", action="store_true",
                      help="exit once the daemon reports every job "
                      "terminal (instead of polling for new campaigns)")
    work.add_argument("--max-faults", type=int, default=None, metavar="N",
                      help="exit after completing N faults (test harness)")
    work.add_argument("--chaos-hang-after", type=int, default=None,
                      metavar="N", help="chaos: after N completed faults, "
                      "print a marker line and hang while holding a lease "
                      "(the lease must expire and be re-served)")
    work.add_argument("--chaos-crash-after", type=int, default=None,
                      metavar="N", help="chaos: after N completed faults, "
                      "report a failure for the in-flight fault and crash")

    submit = commands.add_parser(
        "submit", help="submit a campaign to the daemon",
        description="Submit a campaign to the scheduler daemon.  By "
        "default this waits for the workers to finish and reports exactly "
        "like 'run' (overview + optional checkpoint file); --no-wait "
        "returns immediately after the submit round trip.")
    _add_campaign_arguments(submit)
    submit.add_argument("--addr", required=True, metavar="HOST:PORT",
                        help="daemon address")
    submit.add_argument("--out", default=None, metavar="PATH",
                        help="write the finished records as a checkpoint-"
                        "format JSONL file (mergeable/verifiable)")
    submit.add_argument("--no-wait", action="store_true",
                        help="submit and return immediately (print the "
                        "job's status JSON instead of waiting)")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        metavar="S", help="give up waiting after S seconds "
                        "(default: %(default)s)")
    submit.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="override the daemon's lease TTL for this job")
    submit.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="override the daemon's bounded attempt count")
    submit.add_argument("--lease-size", type=int, default=None, metavar="K",
                        help="override the daemon's lease-slice budget")
    submit.add_argument("--calibrate", action="store_true",
                        help="with --timestep adaptive: calibrate the "
                        "verdict tolerance locally on a probe subset "
                        "before submitting (refuses on failure)")

    status = commands.add_parser(
        "status", help="print the daemon's status as JSON",
        description="One status round trip: all jobs (default) or one "
        "--job fingerprint, printed as JSON.")
    status.add_argument("--addr", required=True, metavar="HOST:PORT",
                        help="daemon address")
    status.add_argument("--job", default=None, metavar="FINGERPRINT",
                        help="show one job instead of the whole daemon")
    return parser


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 failed
    verification, 2 campaign/input error)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "shard": _cmd_shard,
               "merge": _cmd_merge, "generate": _cmd_generate,
               "lint": _cmd_lint,
               "serve": _cmd_serve, "work": _cmd_work,
               "submit": _cmd_submit, "status": _cmd_status}[args.command]
    try:
        return handler(args, out)
    except (ReproError, OSError, ValueError) as exc:
        # ValueError covers settings validation (e.g. negative tolerances);
        # exit 2 is the input-error code, exit 1 means verification failed.
        print(f"error: {exc}", file=sys.stderr)
        return 2
