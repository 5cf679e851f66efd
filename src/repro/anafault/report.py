"""Result presentation: tables and fault-coverage plots.

AnaFAULT presents its results "in tabular form or in form of fault coverage
plots displaying the progress of the fault coverage versus time"; this
module renders both as plain text so they can be embedded in benchmark
output and logged protocols.
"""

from __future__ import annotations

from ..spice.waveform import Waveform, ascii_plot
from .simulator import CampaignResult


def format_fault_table(result: CampaignResult, limit: int | None = None) -> str:
    """Per-fault detection table (the 'detailed report').

    Tolerates partially-resumed results: faults without a record (``None``
    placeholders) are simply absent from the table.
    """
    lines = [f"{'id':>6} {'fault':<38} {'p':>10} {'status':<12} "
             f"{'t_detect':>10} {'max dev':>8}"]
    lines.append("-" * 92)
    live = [r for r in result.records if r is not None]
    records = live if limit is None else live[:limit]
    for record in records:
        fault = record.fault
        t_detect = ("-" if record.detection_time is None
                    else f"{record.detection_time * 1e6:.2f}us")
        lines.append(f"{fault.fault_id:>6} {fault.label()[:38]:<38} "
                     f"{fault.probability:>10.2e} {record.status:<12} "
                     f"{t_detect:>10} {record.max_deviation:>7.2f}V")
    if limit is not None and len(live) > limit:
        lines.append(f"... ({len(live) - limit} more faults)")
    return "\n".join(lines)


def format_overview(result: CampaignResult) -> str:
    """The 'clearly arranged overview table' of the campaign."""
    coverage = result.coverage()
    counts = result.count_by_status()
    telemetry = result.telemetry()
    sim_time = telemetry["fault_seconds_total"]
    lines = [
        "AnaFAULT campaign overview",
        "=" * 42,
        f"circuit              : {result.fault_list.metadata.get('circuit', '-')}",
        f"fault list           : {result.fault_list.name}",
        f"faults simulated     : {telemetry['faults']}",
        f"fault model          : {result.settings.fault_model.model}",
        f"observation nodes    : {', '.join(result.settings.observation_nodes)}",
        f"amplitude tolerance  : {result.settings.tolerances.amplitude:g} V",
        f"time tolerance       : {result.settings.tolerances.time * 1e6:g} us",
        f"test time            : {result.settings.tstop * 1e6:g} us",
        "-" * 42,
    ]
    for status, count in sorted(counts.items()):
        lines.append(f"{status:<21}: {count}")
    lines.append("-" * 42)
    lines.append(f"fault coverage       : {coverage.final_coverage():.1%}")
    lines.append(f"weighted coverage    : {coverage.final_weighted_coverage():.1%}")
    for target in (0.5, 0.9, 0.99, 1.0):
        time_needed = coverage.time_to_coverage(target)
        if time_needed is None:
            text = "not reached"
        else:
            fraction = time_needed / result.settings.tstop
            text = f"{time_needed * 1e6:.2f}us ({fraction:.0%} of test time)"
        lines.append(f"time to {target:>4.0%} coverage: {text}")
    lines.append(f"nominal CPU time     : {result.nominal_elapsed_seconds:.2f}s")
    lines.append(f"fault CPU time       : {sim_time:.2f}s")
    lines.append(f"total wall time      : {result.total_elapsed_seconds:.2f}s")
    lines.append(f"campaign engine      : "
                 f"{telemetry['executor']} executor, "
                 f"{telemetry['workers']} worker(s)")
    if telemetry["shard_count"] > 1:
        lines.append(f"shard                : "
                     f"{telemetry['shard_index']}/{telemetry['shard_count']} "
                     f"({telemetry['faults']} of {len(result.fault_list)} "
                     "faults)")
    if telemetry["nominal_ipc_bytes"] or telemetry["record_ipc_bytes_total"]:
        lines.append(f"IPC payloads         : nominal "
                     f"{telemetry['nominal_ipc_bytes']} B/worker, records "
                     f"{telemetry['record_ipc_bytes_total']} B total")
    if telemetry["checkpoint_skipped"]:
        lines.append(f"checkpoint           : "
                     f"{telemetry['checkpoint_skipped']} record(s) resumed")
    return "\n".join(lines)


def coverage_plot(result: CampaignResult, weighted: bool = False,
                  width: int = 70, height: int = 16) -> str:
    """ASCII fault-coverage-versus-time plot (the Fig. 5 style plot)."""
    coverage = result.coverage()
    wave = coverage.waveform(points=101, weighted=weighted)
    label = ("weighted fault coverage" if weighted else "fault coverage")
    title = (f"{label} vs time "
             f"(tolerances: {result.settings.tolerances.amplitude:g}V / "
             f"{result.settings.tolerances.time * 1e6:g}us)")
    return ascii_plot([wave], width=width, height=height, title=title)


def waveform_plot(waveforms: list[Waveform], title: str = "",
                  width: int = 70, height: int = 16) -> str:
    """ASCII plot of output waveforms (the Fig. 4 / Fig. 6 style plots)."""
    return ascii_plot(waveforms, width=width, height=height, title=title)


def full_report(result: CampaignResult, table_limit: int = 30) -> str:
    """Overview + coverage plot + fault table."""
    return "\n\n".join([
        format_overview(result),
        coverage_plot(result),
        format_fault_table(result, limit=table_limit),
    ])
