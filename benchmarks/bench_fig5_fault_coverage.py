"""Fig. 5 -- fault coverage versus test time.

The paper simulates the complete LIFT fault list of the VCO with a 400-step,
4 us transient (constant control voltage, supply activation as stimulus) and
plots fault coverage versus time using a tolerance of 2 V on the amplitude
and 0.2 us on the time axis.  Their coverage reaches ~100 % after about 25 %
of the test time and all faults are detected after about 55 %.

This benchmark runs the same campaign with our LIFT list.  The absolute
coverage differs (our generated layout contains gate opens and
logically-redundant bridges the hand layout did not have); the *shape* --
steep rise once the oscillator has started, long plateau afterwards -- is
what the assertions check.

Since the streaming-engine PR the benchmark also validates that engine
(see ``docs/campaigns.md``): the timed campaign runs with observed-node
streaming + a checkpoint, a reference campaign runs the legacy full-trace
path, and the two must agree verdict for verdict while the telemetry
table shows the measured IPC payloads and trace-memory win.  A second,
checkpoint-resumed campaign must reproduce the coverage number while
re-simulating nothing.

Since the adaptive-campaign PR it also runs the whole campaign under the
calibrated variable-order BDF integrator (serial and batched) and holds
its verdicts against both the paper's 10 ns grid and a converged fixed
reference grid: adaptive may differ from the paper grid only on the few
faults whose coarse-grid verdict the reference refutes as a truncation
artifact, while spending far fewer Newton solves than the reference.
"""

import time
from dataclasses import replace

from repro.anafault import (
    CampaignSettings,
    FaultSimulator,
    PoolExecutor,
    ToleranceSettings,
    calibrate_tolerance,
    coverage_plot,
    format_fault_table,
    format_overview,
    merge_shards,
)
from repro.circuits import OUTPUT_NODE
from repro.lint import preflight_campaign
from repro.spice import TransientOptions

#: LTE tolerances of the adaptive campaign legs — the same knobs the
#: fig. 3 nominal study settles on (period converged against the fine
#: fixed reference grid, order >= 3 on most steps).
ADAPTIVE_TIMESTEP = TransientOptions(mode="adaptive", lte_reltol=3e-3,
                                     lte_abstol=1e-4, dt_max=8e-8)


def _timed_preflight(circuit, faults, settings):
    """One full campaign preflight (netlist ERC + fault-list analysis),
    returning its wall time in seconds."""
    start = time.perf_counter()
    preflight_campaign(circuit, faults, settings.fault_model)
    return time.perf_counter() - start


def test_fig5_fault_coverage(benchmark, vco_pair, cat_extraction, record,
                             record_json, smoke, fault_budget,
                             campaign_engine, tmp_path):
    circuit, _layout = vco_pair
    faults = cat_extraction.realistic_faults
    if fault_budget is not None:
        faults = faults.top(fault_budget)

    base_settings = CampaignSettings(
        tstop=4e-6, tstep=1e-8, use_ic=True,
        observation_nodes=(OUTPUT_NODE,),
        tolerances=ToleranceSettings(amplitude=2.0, time=0.2e-6),
        **campaign_engine)
    streaming_settings = replace(base_settings, stream_traces=True)
    legacy_settings = replace(base_settings, stream_traces=False)
    checkpoint = tmp_path / "fig5_campaign.jsonl"

    simulator = FaultSimulator(circuit, faults, streaming_settings)
    campaign_wall = {}

    def _timed_run():
        start = time.perf_counter()
        campaign = simulator.run(executor=PoolExecutor(2), checkpoint=checkpoint)
        campaign_wall["seconds"] = time.perf_counter() - start
        return campaign

    result = benchmark.pedantic(_timed_run, rounds=1, iterations=1)

    coverage = result.coverage()
    final = coverage.final_coverage()
    if not smoke:
        # Shape checks against Fig. 5 (need the full fault list):
        #  * a substantial fraction of the faults is detected,
        #  * the curve is monotone and saturates: whatever is detected at all
        #    is detected in the first ~60 % of the test time (the paper's
        #    "all faults detected after approximately 55 %").
        assert final > 0.6
        assert coverage.coverage_at(0.6 * streaming_settings.tstop) >= 0.9 * final
        # Most detections happen early (steep initial rise after the
        # oscillator start-up, cf. "after 25 % of test time the fault
        # coverage almost reaches 100 %").
        assert coverage.coverage_at(0.45 * streaming_settings.tstop) >= 0.7 * final

    # ------------------------------------------------------------------
    # Engine validation: the legacy full-trace path must agree verdict for
    # verdict -- streaming changes memory cost, never physics.
    legacy = FaultSimulator(circuit, faults, legacy_settings).run(executor=PoolExecutor(2))
    assert ([r.fault.fault_id for r in result.records]
            == [r.fault.fault_id for r in legacy.records])
    assert ([r.status for r in result.records]
            == [r.status for r in legacy.records])
    assert ([r.detection_time for r in result.records]
            == [r.detection_time for r in legacy.records])
    assert result.fault_coverage() == legacy.fault_coverage()

    # A checkpointed-then-resumed campaign reproduces the coverage number
    # without re-simulating a single fault.
    resumed = FaultSimulator(circuit, faults, streaming_settings).run(
        executor=PoolExecutor(2), checkpoint=checkpoint)
    assert resumed.checkpoint_skipped == len(result.records)
    assert resumed.fault_coverage() == result.fault_coverage()

    # ------------------------------------------------------------------
    # Cross-host sharding: the same campaign split across two shard runs
    # (as two cluster hosts would execute them, each over a pool) and
    # merged from the JSONL shards must be record-for-record identical to
    # the single-host run — fixed-step campaigns are bit-reproducible.
    shard_paths = []
    for index in range(2):
        shard_paths.append(tmp_path / f"fig5_shard{index}.jsonl")
        FaultSimulator(circuit, faults, streaming_settings).run(
            executor=PoolExecutor(2), checkpoint=shard_paths[index],
            shard_index=index, shard_count=2)
    merged = merge_shards(circuit, faults, streaming_settings, shard_paths,
                          require_complete=True)
    assert ([r.fault.fault_id for r in merged.records]
            == [r.fault.fault_id for r in result.records])
    assert ([r.status for r in merged.records]
            == [r.status for r in result.records])
    assert ([r.detection_time for r in merged.records]
            == [r.detection_time for r in result.records])
    assert merged.fault_coverage() == result.fault_coverage()

    # ------------------------------------------------------------------
    # Concurrent multi-fault simulation (docs/batching.md): the batched
    # executor advances 8 fault variants in lockstep and aborts each one
    # the moment its detection verdict is certain.  Verdicts and
    # detection times must be identical to the plain serial per-fault
    # loop; the wall-clock win comes from early abort (Fig. 5: most
    # detections land in the first quarter of the test time, so most
    # variants stop long before tstop).
    from repro.anafault import BatchedExecutor, SerialExecutor

    serial_start = time.perf_counter()
    serial_run = FaultSimulator(circuit, faults, streaming_settings).run(
        executor=SerialExecutor())
    serial_seconds = time.perf_counter() - serial_start
    batched_start = time.perf_counter()
    batched_run = FaultSimulator(circuit, faults, streaming_settings).run(
        executor=BatchedExecutor(batch_width=8, early_abort=True))
    batched_seconds = time.perf_counter() - batched_start
    assert ([(r.fault.fault_id, r.status, r.detection_time)
             for r in batched_run.records]
            == [(r.fault.fault_id, r.status, r.detection_time)
                for r in serial_run.records])
    batched_speedup = serial_seconds / batched_seconds
    if not smoke:
        # The headline of the batched-executor PR: >= 1.5x over the
        # serial per-fault loop at record-identical verdicts.
        assert batched_speedup >= 1.5, (
            f"batched executor {batched_seconds:.1f}s vs serial "
            f"{serial_seconds:.1f}s ({batched_speedup:.2f}x < 1.5x)")

    # ------------------------------------------------------------------
    # Adaptive campaign end-to-end (docs/integration.md, docs/campaigns.md):
    # calibrate the verdict tolerance on a seeded probe subset, then run
    # the whole campaign under LTE-controlled variable-order BDF — serial
    # and batched — and hold it against the fixed-step campaign and a
    # converged fixed reference grid.  The paper's 10 ns print grid
    # under-resolves the VCO switching edges (fig. 3 mis-measures the
    # period by ~4 %), and on a few bridge faults its truncation error
    # alone decides the verdict: phase drift between the coarse-grid
    # faulty and nominal runs fabricates a detection every finer grid
    # refutes (fault #68: deviation 4.66 V at 10 ns vs 0.01 V at 5, 2.5
    # and 1.25 ns) or hides one every finer grid confirms (#92, #120).
    # The assertions therefore classify each adaptive-vs-fixed
    # divergence against the converged reference: adaptive may leave the
    # paper grid's verdict only where the reference proves that verdict
    # is the integration artifact, and the Newton-solve saving is
    # measured against that same reference — the fixed grid of matched
    # (converged) accuracy.
    adaptive_settings = replace(streaming_settings,
                                timestep=ADAPTIVE_TIMESTEP)
    calibration = calibrate_tolerance(circuit, faults, adaptive_settings,
                                      probes=min(8, len(faults)))
    assert calibration.passed, calibration.summary()

    adaptive_start = time.perf_counter()
    adaptive_run = FaultSimulator(circuit, faults, adaptive_settings).run(
        executor=SerialExecutor())
    adaptive_seconds = time.perf_counter() - adaptive_start
    adaptive_run.calibration.update(calibration.to_dict())
    adaptive_batched = FaultSimulator(circuit, faults,
                                      adaptive_settings).run(
        executor=BatchedExecutor(batch_width=8))

    reference_tstep = 2.5e-9 if smoke else 1.25e-9
    reference_settings = replace(streaming_settings, tstep=reference_tstep)
    reference = FaultSimulator(circuit, faults, reference_settings).run(
        executor=PoolExecutor(2))

    # Adaptive never invents a verdict: fault for fault it either agrees
    # with the fixed campaign, or sides with the converged reference
    # against a coarse-grid artifact — and such artifacts stay rare.
    # Detection times of commonly-detected faults may move only within
    # the comparator's time tolerance.
    divergent, timing_sensitive = [], []
    for adaptive_record, fixed_record, reference_record in zip(
            adaptive_run.records, result.records, reference.records):
        if adaptive_record.status != fixed_record.status:
            assert adaptive_record.status == reference_record.status, (
                f"fault #{fixed_record.fault.fault_id}: adaptive says "
                f"{adaptive_record.status!r} against both the paper grid "
                f"({fixed_record.status!r}) and the converged reference "
                f"({reference_record.status!r})")
            divergent.append((fixed_record.fault.fault_id,
                              fixed_record.status,
                              adaptive_record.status))
        elif (adaptive_record.detection_time is not None
                and fixed_record.detection_time is not None
                and abs(adaptive_record.detection_time
                        - fixed_record.detection_time)
                    > streaming_settings.tolerances.time):
            # The paper grid's detection *time* is only binding where the
            # converged reference reproduces it: a phase-drift detection
            # crosses the threshold at a grid-dependent moment, and on
            # those faults the reference itself leaves the paper grid's
            # time (e.g. #90/#93, where adaptive and the reference agree
            # on 0.86 us against the coarse grid's 2.6 us).
            reference_agrees_with_fixed = (
                reference_record.detection_time is not None
                and abs(reference_record.detection_time
                        - fixed_record.detection_time)
                    <= streaming_settings.tolerances.time)
            assert not reference_agrees_with_fixed, (
                f"fault #{fixed_record.fault.fault_id}: adaptive detects "
                f"at {adaptive_record.detection_time:g}s but the paper "
                f"grid and the converged reference agree on "
                f"{fixed_record.detection_time:g}s")
            timing_sensitive.append(fixed_record.fault.fault_id)
    assert len(divergent) <= max(1, len(faults) // 20), (
        f"{len(divergent)} of {len(faults)} verdicts left the paper grid: "
        f"{divergent}")
    assert len(timing_sensitive) <= max(1, len(faults) // 20), (
        f"{len(timing_sensitive)} of {len(faults)} detection times are "
        f"grid-sensitive: {timing_sensitive}")
    # The batched adaptive run (8 variants in lockstep, each on its own
    # integration grid, synced at print rows) is field-identical to the
    # serial adaptive loop.
    assert ([(r.fault.fault_id, r.status, r.detection_time,
              r.persistent_deviation) for r in adaptive_batched.records]
            == [(r.fault.fault_id, r.status, r.detection_time,
                 r.persistent_deviation) for r in adaptive_run.records])

    adaptive_solves = adaptive_run.telemetry()["newton_iterations_total"]
    fixed_solves_total = result.telemetry()["newton_iterations_total"]
    reference_solves = reference.telemetry()["newton_iterations_total"]
    newton_saving = 1.0 - adaptive_solves / reference_solves
    solve_floor = 0.25 if smoke else 0.35
    assert newton_saving >= solve_floor, (
        f"adaptive campaign spent {adaptive_solves} Newton solves vs "
        f"{reference_solves} for the converged fixed reference grid "
        f"({newton_saving:.0%} < {solve_floor:.0%} saving)")
    order_totals = adaptive_run.telemetry()["order_histogram_total"]
    high_order_fraction = (
        sum(count for order, count in order_totals.items()
            if int(order) >= 3) / sum(order_totals.values()))

    # ------------------------------------------------------------------
    # Defect-driven fault generation (docs/faultgen.md): the same campaign
    # run with a fault list generated from the layout alone — zero
    # hand-written faults — reported side by side with the hand-extracted
    # LIFT list.  The universes differ (the generator enumerates per-site
    # weighted candidates and collapses them; the LIFT extractor follows
    # the paper's realistic-fault flow), so the coverages are compared,
    # not asserted equal.
    from repro.anafault import estimate_coverage, generate_fault_list, \
        sample_faults
    from repro.extract import compare, extract_netlist

    extraction = extract_netlist(_layout)
    generated = generate_fault_list(_layout, extraction, schematic=circuit,
                                    lvs=compare(extraction.circuit, circuit))
    generated_universe = len(generated)
    if fault_budget is not None:
        generated = generated.top(fault_budget)
    generated_run = FaultSimulator(circuit, generated, streaming_settings).run(
        executor=PoolExecutor(2))
    generated_weighted = generated_run.coverage().final_weighted_coverage()
    # The importance-sampled estimate over the same generated universe must
    # bracket the exhaustively simulated weighted coverage.
    generated_sample = sample_faults(generated, 200, seed=1995)
    generated_estimate = estimate_coverage(generated_sample,
                                           generated_run.detected_ids())
    assert generated_estimate.contains(generated_weighted), (
        f"{generated_estimate.summary()} does not bracket "
        f"{generated_weighted:.3f}")

    # ------------------------------------------------------------------
    # Preflight overhead: the static analyzer that gates every campaign
    # (``FaultSimulator.plan(preflight=...)``, see docs/lint.md) must stay
    # in the noise next to the transient sweep it protects -- under 1 % of
    # the campaign wall time even on this, the paper's largest campaign.
    preflight_seconds = min(
        _timed_preflight(circuit, faults, streaming_settings)
        for _ in range(3))
    assert simulator.settings.preflight != "off"
    assert preflight_seconds < 0.01 * campaign_wall["seconds"], (
        f"preflight took {preflight_seconds:.3f}s against a "
        f"{campaign_wall['seconds']:.1f}s campaign")

    # The measured streaming win: the per-fault trace allocation shrinks to
    # the observed nodes.
    streaming_telemetry = result.telemetry()
    legacy_telemetry = legacy.telemetry()
    assert (streaming_telemetry["trace_bytes_max"]
            < legacy_telemetry["trace_bytes_max"])

    def _column(key, fmt="{:,}"):
        return (fmt.format(streaming_telemetry[key]),
                fmt.format(legacy_telemetry[key]))

    telemetry_rows = [
        ("nominal IPC payload / worker [B]", *_column("nominal_ipc_bytes")),
        ("record IPC payload total [B]", *_column("record_ipc_bytes_total")),
        ("trace bytes / fault (max) [B]", *_column("trace_bytes_max")),
        ("fault coverage", f"{result.fault_coverage():.1%}",
         f"{legacy.fault_coverage():.1%}"),
    ]
    lines = [
        "Fig. 5  fault coverage vs time (2 V amplitude, 0.2 us time tolerance)",
        "",
        format_overview(result),
        "",
        coverage_plot(result),
        "",
        "paper: ~100 % coverage after ~25 % of test time, all faults after ~55 %",
        f"ours : {coverage.coverage_at(0.25 * streaming_settings.tstop):.0%} after 25 %, "
        f"{coverage.coverage_at(0.55 * streaming_settings.tstop):.0%} after 55 %, "
        f"final {final:.0%} "
        "(undetected remainder: floating-gate opens and logically redundant bridges)",
        "",
        "hand-written vs generated fault list  (same campaign settings)",
        f"{'':<26}{'LIFT extraction':>18}{'faultgen':>18}",
        "-" * 62,
        f"{'faults simulated':<26}{len(faults):>18,}{len(generated):>18,}",
        f"{'universe size':<26}{len(cat_extraction.realistic_faults):>18,}"
        f"{generated_universe:>18,}",
        f"{'fault coverage':<26}{result.fault_coverage():>17.1%} "
        f"{generated_run.fault_coverage():>17.1%}",
        f"{'weighted coverage':<26}"
        f"{result.coverage().final_weighted_coverage():>17.1%} "
        f"{generated_weighted:>17.1%}",
        f"sampled estimate (faultgen): {generated_estimate.summary()} — "
        "brackets the exhaustive weighted coverage (asserted)",
        "",
        "memory / IPC telemetry  (identical verdicts on every fault)",
        f"{'':<34}{'streaming engine':>18}{'full-trace path':>18}",
        "-" * 70,
    ]
    lines += [f"{label:<34}{streaming_value:>18}{legacy_value:>18}"
              for label, streaming_value, legacy_value in telemetry_rows]
    lines += [
        "-" * 70,
        f"checkpoint resume: {resumed.checkpoint_skipped} records reloaded, "
        f"0 re-simulated, coverage {resumed.fault_coverage():.1%} "
        "(identical to the straight-through run)",
        f"cross-host shards: 2-way shard split merged to "
        f"{len([r for r in merged.records if r is not None])} records, "
        "record-for-record identical to the single-host run",
        f"batched executor : width 8 + early abort, "
        f"{batched_run.early_aborted} of {len(faults)} variants aborted "
        f"early, {batched_speedup:.2f}x over the serial per-fault loop "
        "(verdicts and detection times identical)",
        f"campaign preflight: {len(faults)} faults analyzed statically in "
        f"{preflight_seconds * 1e3:.1f} ms "
        f"({preflight_seconds / campaign_wall['seconds']:.2%} of the "
        f"{campaign_wall['seconds']:.1f} s campaign; asserted < 1 %)",
        "",
        "adaptive campaign  (variable-order BDF, calibrated verdict "
        "tolerance)",
        f"{'':<26}{'fixed 10ns':>14}"
        f"{'fixed %.3gns' % (reference_tstep * 1e9):>14}{'adaptive':>14}",
        "-" * 68,
        f"{'Newton solves (total)':<26}{fixed_solves_total:>14,}"
        f"{reference_solves:>14,}{adaptive_solves:>14,}",
        f"{'fault coverage':<26}{result.fault_coverage():>13.1%} "
        f"{reference.fault_coverage():>13.1%} "
        f"{adaptive_run.fault_coverage():>13.1%}",
        "-" * 68,
        calibration.summary(),
        f"adaptive vs converged fixed reference: {newton_saving:.1%} "
        f"fewer Newton solves (asserted >= {solve_floor:.0%})",
        ("verdicts identical to the fixed campaign on every fault"
         if not divergent else
         f"verdicts identical to the fixed campaign on "
         f"{len(faults) - len(divergent)} of {len(faults)} faults; "
         "divergences (each confirmed against the paper grid by the "
         "converged reference — coarse-grid truncation artifacts): "
         + ", ".join(f"#{fid} {was}->{now}"
                     for fid, was, now in divergent)),
        ("detection times within the comparator tolerance on every "
         "commonly-detected fault" if not timing_sensitive else
         f"detection timing grid-sensitive on {len(timing_sensitive)} "
         "fault(s) ("
         + ", ".join(f"#{fid}" for fid in timing_sensitive)
         + "): the converged reference itself leaves the paper grid's "
         "detection time there, so the time tolerance is asserted only "
         "against grid-stable detections"),
        f"serial vs --batch-width 8: record-identical (status, detection "
        f"time, persistent deviation) on all {len(faults)} variants",
        f"variable-order BDF: {high_order_fraction:.0%} of accepted steps "
        "at order >= 3, per-order totals "
        + ", ".join(f"{order}:{order_totals[order]}"
                    for order in sorted(order_totals)),
        "",
        format_fault_table(result, limit=40),
    ]
    record("fig5_fault_coverage.txt", "\n".join(lines) + "\n")
    record_json("fig5_fault_coverage", {
        "faults": len(faults),
        "wall_seconds": {"fixed_campaign": campaign_wall["seconds"],
                         "adaptive_serial": adaptive_seconds,
                         "batched_fixed": batched_seconds,
                         "serial_fixed": serial_seconds},
        "newton_solves": {"fixed_paper_grid": fixed_solves_total,
                          "fixed_reference": reference_solves,
                          "adaptive": adaptive_solves},
        "reference_tstep": reference_tstep,
        "newton_saving_vs_reference": newton_saving,
        "verdicts": {"fixed": result.count_by_status(),
                     "reference": reference.count_by_status(),
                     "adaptive": adaptive_run.count_by_status()},
        "verdict_divergences": [
            {"fault_id": fid, "fixed": was, "adaptive": now}
            for fid, was, now in divergent],
        "timing_sensitive_faults": timing_sensitive,
        "fault_coverage": result.fault_coverage(),
        "weighted_coverage":
            result.coverage().final_weighted_coverage(),
        "batched_speedup": batched_speedup,
        "early_aborted": batched_run.early_aborted,
        "high_order_step_fraction": high_order_fraction,
        "order_histogram_total": order_totals,
        "calibration": calibration.to_dict(),
    })
