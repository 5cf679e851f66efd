"""The AnaFAULT campaign manager.

The automatic fault simulation runs in the repetitive three-phase cycle
described in section V of the paper:

1. *preprocessing* -- the fault is injected into a copy of the input circuit
   (:mod:`repro.anafault.injection`),
2. *kernel simulation* -- the transient analysis of
   :mod:`repro.spice.analysis` plays the role of the ELDO kernel,
3. *post-processing* -- the response is compared against the fault-free
   ("nominal") simulation under amplitude/time tolerances and the detection
   statistics are accumulated.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import InitVar, dataclass, field, replace

from ..errors import CampaignError, PreflightError
from ..lift.faultlist import FaultList
from ..lift.faults import Fault
from ..spice import (Circuit, SimulationOptions, TransientAnalysis,
                     TransientOptions)
from ..spice.waveform import Waveform
from .comparator import (DetectionResult, StreamingDetector,
                         ToleranceSettings, WaveformComparator)
from .coverage import FaultCoverage
from .injection import FaultInjector
from .models import FaultModelOptions

#: Status values of a fault simulation record.
STATUS_DETECTED = "detected"
STATUS_UNDETECTED = "undetected"
STATUS_SIM_FAILED = "sim_failed"
STATUS_INJECTION_FAILED = "injection_failed"

#: Campaign preflight modes: ``"error"`` refuses to plan on error-severity
#: diagnostics, ``"warn"`` records the diagnostics and proceeds, ``"off"``
#: skips the static analysis entirely.
PREFLIGHT_MODES = ("error", "warn", "off")


@dataclass
class CampaignSettings:
    """Everything needed to run one fault simulation campaign.

    A settings object travels, as-is, to every process-pool worker of a
    parallel campaign, and its fields are part of the campaign fingerprint
    used to key checkpoints (:func:`repro.anafault.checkpoint.\
campaign_fingerprint`) — two campaigns resume from the same checkpoint file
    only when their settings are identical.  A new field needs a row in
    :data:`repro.anafault.checkpoint.IDENTITY_FIELDS`, which says how.

    Every campaign transient records only the ``observation_nodes``
    (observed-node streaming, see ``docs/campaigns.md``): the comparator
    reads nothing else and records never carry waveforms.
    ``stream_traces=True`` is still accepted, as the one value the
    deleted field ever needs.
    """

    #: Transient stop time [s] (paper: 4 us).
    tstop: float = 4e-6
    #: Transient print step [s] (paper: 400 steps -> 10 ns).
    tstep: float = 1e-8
    #: Start from initial conditions instead of a DC operating point.
    use_ic: bool = True
    #: Node voltages observed by the comparator (paper: node 11).
    observation_nodes: tuple[str, ...] = ("11",)
    #: Initial node voltages when ``use_ic`` is set.
    initial_conditions: dict = field(default_factory=dict)
    tolerances: ToleranceSettings = field(default_factory=ToleranceSettings)
    fault_model: FaultModelOptions = field(default_factory=FaultModelOptions)
    simulator_options: SimulationOptions = field(default_factory=SimulationOptions)
    #: Count faults whose simulation fails to converge as detected (a fault
    #: that destroys the operating region is trivially observable).
    count_failed_as_detected: bool = True
    #: Linear-solver backend for every transient of the campaign: ``None``
    #: or ``"auto"`` selects by matrix size, ``"dense"``/``"sparse"`` force
    #: one path (see :mod:`repro.spice.analysis.backends`).  Travels with
    #: the settings to process-pool workers.
    solver_backend: str | None = None
    #: Timestep-control policy for every transient of the campaign
    #: (:class:`~repro.spice.TransientOptions`).  The default pins the
    #: fixed-step legacy mode: fixed stepping is bit-reproducible run to
    #: run, which checkpoint resume relies on for record-identical merges.
    #: Campaigns that opt into ``TransientOptions(mode="adaptive")`` get
    #: the LTE-controlled integrator (see ``docs/integration.md``); the
    #: timestep options are part of the campaign fingerprint, so a
    #: checkpoint never silently mixes the two.
    timestep: TransientOptions = field(default_factory=TransientOptions)
    #: Campaign preflight mode (:data:`PREFLIGHT_MODES`): run the static
    #: analyzer (:mod:`repro.lint`) over the netlist and fault list before
    #: anything is simulated.  ``"warn"`` (the library default) records the
    #: diagnostics on the plan and result; ``"error"`` makes
    #: :meth:`FaultSimulator.plan` raise
    #: :class:`~repro.errors.PreflightError` on error-severity findings
    #: (the ``run``/``shard`` CLI defaults to it); ``"off"`` skips the
    #: analysis.  Part of the campaign fingerprint when non-default.
    preflight: str = "warn"
    #: Not a field: campaigns always stream (see the class docstring).
    stream_traces: InitVar[bool] = True

    def __post_init__(self, stream_traces: bool) -> None:
        if stream_traces is not True:
            raise CampaignError(
                "CampaignSettings.stream_traces is retired: campaigns always "
                f"record only the observation nodes, got {stream_traces!r}")


@dataclass
class FaultSimulationRecord:
    """Result of simulating one fault.

    This is the complete per-fault payload a parallel worker sends back —
    verdict, metrics and telemetry, never waveforms — and the unit the
    checkpoint file persists (one JSON line per record, see
    :mod:`repro.anafault.checkpoint`).
    """

    fault: Fault
    status: str
    detection_time: float | None = None
    detected_on: str = ""
    max_deviation: float = 0.0
    #: The comparator's decision scalar — the largest deviation sustained
    #: for a full persistence window (see
    #: :attr:`repro.anafault.DetectionResult.persistent_deviation`); the
    #: verdict is exactly ``persistent_deviation > amplitude tolerance``,
    #: and :func:`repro.anafault.calibrate_tolerance` bounds its shift
    #: across integration grids.
    persistent_deviation: float = 0.0
    elapsed_seconds: float = 0.0
    message: str = ""
    #: Linear solves spent by the transient kernel on this fault (workload
    #: telemetry; 0 when the simulation failed before completing).
    newton_iterations: int = 0
    #: Internal timestep-controller counters of the fault's transient
    #: (accepted / rejected sub-steps; 0 when the simulation failed).
    steps_accepted: int = 0
    steps_rejected: int = 0
    #: Bytes of trace memory the fault's transient materialised (the
    #: observed nodes' print rows; 0 when the simulation failed).
    trace_bytes: int = 0
    #: Pickled size of this record — its IPC cost — stamped by the worker;
    #: 0 for records produced in-process (serial runs, checkpoint reloads).
    payload_bytes: int = 0
    #: True for records reloaded from a checkpoint instead of simulated by
    #: this run.  The verdict fields stay authoritative either way; the
    #: flag only keeps :meth:`CampaignResult.telemetry` step totals from
    #: counting the original run's kernel work a second time on resume.
    reloaded: bool = False
    #: 1-based attempt that produced this record (the campaign service
    #: retries failed faults up to a bounded attempt count; a serial run
    #: always succeeds or fails on attempt 1).  Only the final attempt's
    #: record exists — earlier failed attempts emit no record — so the
    #: kernel-work totals in :meth:`CampaignResult.telemetry` stay
    #: single-counted; ``attempts_total`` surfaces the consumed retries.
    attempt: int = 1
    #: Accepted transient steps per integration order (string order key →
    #: count, matching ``TransientResult.stats["order_histogram"]``).
    #: ``{"1": n}``/``{"2": n}`` for fixed-step runs, the variable-order
    #: BDF spread for adaptive ones; empty when the simulation failed.
    order_histogram: dict = field(default_factory=dict)

    @property
    def detected(self) -> bool:
        """Whether this fault was classified as detected."""
        return self.status == STATUS_DETECTED


def record_from_comparison(fault: Fault, comparison: DetectionResult,
                           stats: dict,
                           elapsed_seconds: float) -> FaultSimulationRecord:
    """Build the success-path :class:`FaultSimulationRecord` from a
    comparator verdict and the transient's kernel statistics.

    The one place campaign records are assembled from verdicts
    (:meth:`FaultSimulator._simulate_lockstep`, which every executor
    reaches); tests also use it to rebuild reference records.
    """
    iterations = int(stats.get("newton_iterations", 0))
    trace_bytes = int(stats.get("trace_bytes", 0))
    steps_accepted = int(stats.get("steps_accepted", 0))
    steps_rejected = int(stats.get("steps_rejected", 0))
    order_histogram = {str(k): int(v)
                       for k, v in (stats.get("order_histogram") or {}).items()}
    persistent = float(getattr(comparison, "persistent_deviation", 0.0))
    if comparison.detected:
        return FaultSimulationRecord(
            fault, STATUS_DETECTED, detection_time=comparison.detection_time,
            detected_on=comparison.signal,
            max_deviation=comparison.max_deviation,
            persistent_deviation=persistent,
            elapsed_seconds=elapsed_seconds,
            newton_iterations=iterations, trace_bytes=trace_bytes,
            steps_accepted=steps_accepted, steps_rejected=steps_rejected,
            order_histogram=order_histogram)
    return FaultSimulationRecord(
        fault, STATUS_UNDETECTED, max_deviation=comparison.max_deviation,
        persistent_deviation=persistent,
        elapsed_seconds=elapsed_seconds, newton_iterations=iterations,
        trace_bytes=trace_bytes, steps_accepted=steps_accepted,
        steps_rejected=steps_rejected, order_histogram=order_histogram)


@dataclass
class CampaignResult:
    """Aggregate result of a fault simulation campaign.

    Holds the per-fault :class:`FaultSimulationRecord` list (in fault-list
    order, merged across checkpoint resumes), the nominal waveforms and
    the campaign-level telemetry.  All aggregation methods tolerate empty
    and partially-resumed record sets — a campaign interrupted mid-run can
    always be summarised.
    """

    settings: CampaignSettings
    fault_list: FaultList
    records: list[FaultSimulationRecord] = field(default_factory=list)
    nominal: dict[str, Waveform] = field(default_factory=dict)
    nominal_elapsed_seconds: float = 0.0
    total_elapsed_seconds: float = 0.0
    #: Kernel statistics of the nominal run (see ``TransientResult.stats``).
    nominal_stats: dict = field(default_factory=dict)
    #: Records reloaded from a checkpoint instead of being re-simulated.
    checkpoint_skipped: int = 0
    #: Pickled size of the nominal payload one worker received (0 serial).
    nominal_ipc_bytes: int = 0
    #: Worker processes the campaign ran with (1 = serial).
    workers: int = 1
    #: How the records were produced: ``"serial"``, ``"pool"``,
    #: ``"batched"``, ``"remote"`` or ``"merge"`` (see
    #: :mod:`repro.anafault.executors`); a shard reports the executor that
    #: ran its slice.
    executor: str = "serial"
    #: Shard slice this result covers; ``(0, 1)`` for an unsharded run.  A
    #: shard result holds ``None`` placeholders for the faults of the
    #: other shards (every aggregate tolerates them).
    shard_index: int = 0
    shard_count: int = 1
    #: Preflight mode the campaign ran under (:data:`PREFLIGHT_MODES`).
    preflight: str = "warn"
    #: Diagnostics the campaign preflight reported
    #: (:class:`repro.lint.Diagnostic` tuple; empty when clean or off).
    preflight_diagnostics: tuple = ()
    #: Lockstep batch width the campaign ran with (0 = per-fault
    #: execution; see :class:`~repro.anafault.BatchedExecutor`).
    batch_width: int = 0
    #: Fault variants the batched executor stopped early because their
    #: verdict was already decided (0 unless ``early_abort`` was on).
    early_aborted: int = 0
    #: Scheduler-daemon counters of a remotely executed campaign —
    #: ``leases_granted``/``leases_expired``/``retries``/``duplicates``
    #: and the per-worker throughput table (empty for local executors).
    #: See :mod:`repro.anafault.service` and ``docs/service.md``.
    service: dict = field(default_factory=dict)
    #: Verdict-sensitivity calibration attached by
    #: :func:`repro.anafault.calibrate_tolerance` (the
    #: ``CalibrationReport.to_dict()`` payload; empty when the campaign
    #: ran uncalibrated).  Surfaced verbatim in :meth:`telemetry`.
    calibration: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._fault_index: dict[int, FaultSimulationRecord] = {}
        self._indexed_records = 0

    def _live_records(self) -> list[FaultSimulationRecord]:
        """Records that exist — a partially-resumed result may carry
        ``None`` placeholders for faults that never ran."""
        return [r for r in self.records if r is not None]

    # ------------------------------------------------------------------
    def record_for(self, fault_id: int) -> FaultSimulationRecord:
        """Record of one fault id, backed by a lazily built index (the
        previous linear scan made loops over ids quadratic).

        Raises :class:`KeyError` (with the offending id in the message)
        when the campaign has no record for ``fault_id``, and
        :class:`~repro.errors.CampaignError` when the campaign carries
        *several* records for it — duplicate ids from an un-merged fault
        list used to silently shadow all but the first record; run
        ``FaultList.merge_equivalent()`` first.
        """
        if self._indexed_records != len(self.records):
            index: dict[int, FaultSimulationRecord] = {}
            for record in self._live_records():
                previous = index.setdefault(record.fault.fault_id, record)
                if previous is not record:
                    raise CampaignError(
                        f"campaign has multiple records for fault id "
                        f"{record.fault.fault_id} (duplicate ids in an "
                        "un-merged fault list); record_for cannot pick one "
                        "— merge the fault list first (merge_equivalent())")
            self._fault_index = index
            self._indexed_records = len(self.records)
        try:
            return self._fault_index[fault_id]
        except KeyError:
            # KeyError is this method's documented mapping-protocol contract.
            raise KeyError(  # repro-lint: allow=raise-type
                f"no record for fault id {fault_id} (campaign has records "
                f"for {len(self._fault_index)} faults)") from None

    def detected_ids(self) -> set[int]:
        """Fault ids of the detected records."""
        return {r.fault.fault_id for r in self._live_records() if r.detected}

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def total_newton_iterations(self) -> int:
        """Linear solves spent by *this* run across all fault simulations
        plus nominal (checkpoint-reloaded records are excluded: their
        kernel work was already counted by the run that produced them)."""
        total = sum(int(r.newton_iterations or 0)
                    for r in self._live_records() if not r.reloaded)
        return total + int(self.nominal_stats.get("newton_iterations", 0))

    def telemetry(self) -> dict:
        """Per-campaign workload summary built from the per-record data.

        Safe on empty and partially-resumed record sets (all aggregates
        degrade to zero).  See ``docs/campaigns.md`` for the field
        reference.
        """
        records = self._live_records()
        elapsed = [float(r.elapsed_seconds or 0.0) for r in records]
        iterations = [int(r.newton_iterations or 0) for r in records]
        payloads = [int(r.payload_bytes or 0) for r in records]
        count = len(records)
        return {
            "faults": count,
            "solver_backend": self.nominal_stats.get("solver_backend",
                                                     "dense"),
            "device_kernel": self.nominal_stats.get("device_kernel"),
            "timestep_mode": self.nominal_stats.get("timestep_mode",
                                                    "fixed"),
            "steps_accepted_total": sum(
                int(r.steps_accepted or 0) for r in records if not r.reloaded)
                + int(self.nominal_stats.get("steps_accepted", 0)),
            "steps_rejected_total": sum(
                int(r.steps_rejected or 0) for r in records if not r.reloaded)
                + int(self.nominal_stats.get("steps_rejected", 0)),
            "dt_min": float(self.nominal_stats.get("dt_min", 0.0)),
            "dt_max": float(self.nominal_stats.get("dt_max", 0.0)),
            "order_histogram_total": self._order_histogram_total(),
            "order_changes_nominal": int(
                self.nominal_stats.get("order_changes", 0)),
            "calibration": dict(self.calibration),
            "nominal_elapsed_seconds": self.nominal_elapsed_seconds,
            "total_elapsed_seconds": self.total_elapsed_seconds,
            "fault_seconds_total": sum(elapsed),
            "fault_seconds_mean": sum(elapsed) / count if count else 0.0,
            "fault_seconds_max": max(elapsed, default=0.0),
            "newton_iterations_total": self.total_newton_iterations(),
            "newton_iterations_mean": (sum(iterations) / count) if count else 0.0,
            "newton_iterations_max": max(iterations, default=0),
            "workers": self.workers,
            "executor": self.executor,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "nominal_ipc_bytes": self.nominal_ipc_bytes,
            "record_ipc_bytes_total": sum(payloads),
            "record_ipc_bytes_mean": sum(payloads) / count if count else 0.0,
            "trace_bytes_max": max((int(r.trace_bytes or 0) for r in records),
                                   default=0),
            "batch_width": self.batch_width,
            "early_aborted": self.early_aborted,
            "checkpoint_skipped": self.checkpoint_skipped,
            # Retry accounting (campaign service): only the final attempt
            # of a fault produces a record, so the step/iteration totals
            # above are single-counted by construction; these two surface
            # how much retrying it took to get there.
            "attempts_total": sum(int(r.attempt or 1) for r in records),
            "retried_faults": sum(1 for r in records
                                  if int(r.attempt or 1) > 1),
            "preflight": self.preflight,
            "preflight_errors": sum(
                1 for d in self.preflight_diagnostics
                if getattr(d, "severity", "") == "error"),
            "preflight_warnings": sum(
                1 for d in self.preflight_diagnostics
                if getattr(d, "severity", "") == "warning"),
            # Defect-driven generation provenance (zero for hand-written
            # lists): how many geometric candidates the generator saw, how
            # many equivalence classes survived collapsing, and how many
            # importance-sampling draws selected this campaign's faults.
            "faultgen_candidates": self._faultgen_meta("faultgen_candidates"),
            "faultgen_collapsed": self._faultgen_meta("faultgen_collapsed"),
            "faultgen_sampled": self._faultgen_meta("faultgen_sampled"),
        }

    def _order_histogram_total(self) -> dict:
        """Accepted steps per integration order, campaign-wide: the
        nominal run's histogram plus every non-reloaded fault record's
        (reloaded records' kernel work was counted by the run that
        produced them, matching :meth:`total_newton_iterations`)."""
        total: dict[str, int] = {}
        for key, value in (self.nominal_stats.get("order_histogram")
                           or {}).items():
            total[str(key)] = total.get(str(key), 0) + int(value)
        for record in self._live_records():
            if record.reloaded:
                continue
            for key, value in (record.order_histogram or {}).items():
                total[str(key)] = total.get(str(key), 0) + int(value)
        return dict(sorted(total.items()))

    def _faultgen_meta(self, key: str) -> int:
        """Integer faultgen counter from the fault-list metadata (0 when
        absent or unparsable — hand-written lists carry none)."""
        metadata = getattr(self.fault_list, "metadata", None) or {}
        try:
            return int(float(str(metadata.get(key, 0))))
        except ValueError:
            return 0

    def count_by_status(self) -> dict[str, int]:
        """Record count per status string (empty dict for no records)."""
        counts: dict[str, int] = {}
        for record in self._live_records():
            status = record.status or "unknown"
            counts[status] = counts.get(status, 0) + 1
        return counts

    def coverage(self) -> FaultCoverage:
        """Coverage curve data derived from the per-fault detection times.

        Weighted aggregation uses :attr:`~repro.lift.faults.Fault.
        effective_weight`, so explicit defect weights (generated fault
        lists, ``* meta weight.<id>`` lines) take precedence over the
        occurrence probability."""
        records = self._live_records()
        detection_times = {r.fault.fault_id: r.detection_time
                           for r in records
                           if r.detected and r.detection_time is not None}
        probabilities = {r.fault.fault_id: r.fault.effective_weight
                         for r in records}
        return FaultCoverage(total_faults=len(records),
                             detection_times=detection_times,
                             probabilities=probabilities,
                             end_time=self.settings.tstop)

    def fault_coverage(self) -> float:
        """Final (unweighted) fault coverage in [0, 1]."""
        return self.coverage().final_coverage()


class FaultSimulator:
    """Run a fault simulation campaign for one circuit and fault list.

    The campaign manager of the reproduction: runs (and caches) the nominal
    transient, then injects/simulates/classifies every fault of the list —
    serially or through the pluggable executor seam
    (``run(executor=PoolExecutor(N))`` for a process pool), recording
    only the observed nodes of every transient, and optionally appending
    every finished record to a resumable checkpoint
    (``run(checkpoint=path)``).  See ``docs/campaigns.md`` for the engine
    walk-through.
    """

    def __init__(self, circuit: Circuit, fault_list: FaultList | None,
                 settings: CampaignSettings | None = None,
                 solver_backend: str | None = None):
        if fault_list is None:
            # Worker mode (see for_worker): simulate_fault only, no campaign.
            fault_list = FaultList("worker", [])
        elif not len(fault_list):
            raise CampaignError("the fault list is empty")
        self.circuit = circuit
        self.fault_list = fault_list
        self.settings = settings or CampaignSettings()
        if solver_backend is not None:
            # Explicit override; stored on the settings so that it travels
            # to process-pool workers with everything else.
            self.settings = replace(self.settings,
                                    solver_backend=solver_backend)
        self.injector = FaultInjector(circuit, self.settings.fault_model)
        self._comparator = WaveformComparator(self.settings.tolerances)
        self._nominal_elapsed = 0.0
        self._nominal_stats: dict = {}

    @classmethod
    def for_worker(cls, circuit: Circuit,
                   settings: CampaignSettings | None = None) -> "FaultSimulator":
        """Build a simulator for per-fault work without a campaign fault
        list (process-pool workers, ad-hoc :meth:`simulate_fault` calls)."""
        return cls(circuit, None, settings)

    # ------------------------------------------------------------------
    def _make_transient(self, circuit: Circuit) -> TransientAnalysis:
        """The campaign's transient analysis of ``circuit`` — one
        construction path shared by the nominal run and every fault
        variant, so all of them simulate under identical knobs."""
        settings = self.settings
        return TransientAnalysis(
            circuit, tstop=settings.tstop, tstep=settings.tstep,
            options=settings.simulator_options, use_ic=settings.use_ic,
            initial_conditions=settings.initial_conditions,
            solver_backend=settings.solver_backend,
            # Observed-node streaming: the comparator only ever reads the
            # observation nodes, so nothing else needs to be materialised.
            record_nodes=settings.observation_nodes,
            timestep=settings.timestep)

    def _run_transient(self, circuit: Circuit) -> tuple[dict[str, Waveform], dict]:
        settings = self.settings
        result = self._make_transient(circuit).run()
        waveforms = {}
        for node in settings.observation_nodes:
            waveforms[node] = result.waveform(node)
        return waveforms, result.stats

    def run_nominal(self) -> dict[str, Waveform]:
        """Run (and cache) the fault-free simulation; returns the observed
        waveforms the comparator will reference."""
        start = _time.perf_counter()
        nominal, self._nominal_stats = self._run_transient(self.circuit)
        self._nominal_elapsed = _time.perf_counter() - start
        return nominal

    def simulate_fault(self, fault: Fault,
                       nominal: dict[str, Waveform]) -> FaultSimulationRecord:
        """Inject, simulate and classify a single fault against ``nominal``
        (the observed waveform dict from :meth:`run_nominal`): a
        one-variant :meth:`_simulate_lockstep`."""
        records, _aborted = self._simulate_lockstep([fault], nominal)
        return records[0]

    def _simulate_lockstep(self, faults: list[Fault],
                           nominal: dict[str, Waveform],
                           early_abort: bool = False,
                           ) -> tuple[list[FaultSimulationRecord], int]:
        """Inject ``faults``, advance their transients in lockstep and
        classify each variant as its print rows land.

        The one fault-simulation path of the campaign layer (section V's
        inject → simulate → compare cycle): every fault that injects
        becomes a variant of one
        :class:`~repro.spice.analysis.BatchedTransient`, watched by its own
        :class:`~repro.anafault.StreamingDetector`.  A fault that fails to
        inject, or a variant evicted for non-convergence, becomes its
        failure record here; every other record goes through
        :func:`record_from_comparison`.  ``early_abort`` stops a variant
        once its verdict is decided (see :class:`~repro.anafault.\
BatchedExecutor`).

        Returns the records in ``faults`` order and the number of variants
        stopped early.  A record's ``elapsed_seconds`` is its injection
        time plus an equal share of the lockstep kernel time.
        """
        from ..spice.analysis.batched import BatchedTransient

        records: list = [None] * len(faults)
        variants: list[tuple[int, float]] = []  # (position, inject seconds)
        analyses = []
        for position, fault in enumerate(faults):
            start = _time.perf_counter()
            try:
                circuit = self.injector.inject(fault)
            except Exception as exc:
                records[position] = FaultSimulationRecord(
                    fault, STATUS_INJECTION_FAILED, message=str(exc),
                    elapsed_seconds=_time.perf_counter() - start)
                continue
            analyses.append(self._make_transient(circuit))
            variants.append((position, _time.perf_counter() - start))
        if not variants:
            return records, 0

        kernel_start = _time.perf_counter()
        batch = BatchedTransient(analyses)
        batch.begin()
        detectors: dict[int, StreamingDetector] = {}
        columns: dict[int, dict] = {}
        for variant, run in enumerate(batch.runs):
            if run is None:  # evicted during the initial solve
                continue
            detectors[variant] = StreamingDetector(self._comparator, nominal,
                                                   run.times)
            columns[variant] = {signal: run.signal_column(signal)
                                for signal in nominal}

        def observe(print_index: int, live: list[int]) -> list[int]:
            stops = []
            for variant in live:
                row = batch.runs[variant].data[print_index]
                detector = detectors[variant]
                detector.feed({
                    signal: (0.0 if column is None else row[column])
                    for signal, column in columns[variant].items()})
                if early_abort and detector.decided:
                    stops.append(variant)
            return stops

        batch.run(observe)
        stats = {variant: run.finish().stats
                 for variant, run in enumerate(batch.runs) if run is not None}
        share = (_time.perf_counter() - kernel_start) / len(variants)

        for variant, (position, inject_seconds) in enumerate(variants):
            fault = faults[position]
            elapsed = inject_seconds + share
            error = batch.errors.get(variant)
            if error is None:
                records[position] = record_from_comparison(
                    fault, detectors[variant].result(), stats[variant],
                    elapsed)
                continue
            detected = self.settings.count_failed_as_detected
            records[position] = FaultSimulationRecord(
                fault, STATUS_DETECTED if detected else STATUS_SIM_FAILED,
                detection_time=0.0 if detected else None,
                message=str(error), elapsed_seconds=elapsed)
        return records, len(batch.aborted)

    # ------------------------------------------------------------------
    # The campaign pipeline: plan -> execute -> collect
    # ------------------------------------------------------------------
    def plan(self, checkpoint=None, shard_index: int = 0,
             shard_count: int = 1, preflight: str | None = None):
        """Build the :class:`~repro.anafault.executors.CampaignPlan` of one
        run: this run's (possibly sharded) slice of the fault list, the
        skipped/pending partition derived from ``checkpoint`` (a path or
        :class:`~repro.anafault.CampaignCheckpoint`), and the campaign
        fingerprint.

        Before anything else the *campaign preflight* runs the static
        analyzer (:func:`repro.lint.preflight_campaign`) over the netlist
        and fault list.  ``preflight`` selects the mode
        (:data:`PREFLIGHT_MODES`); ``None`` uses
        ``settings.preflight``, and an explicit value is stored back onto
        the settings (like the ``solver_backend`` override) so the
        campaign fingerprint and pool workers see it.  In ``"error"``
        mode, error-severity diagnostics raise
        :class:`~repro.errors.PreflightError` whose message lists *every*
        diagnostic; in ``"warn"`` mode they are recorded on the plan
        (:attr:`~repro.anafault.executors.CampaignPlan.diagnostics`)
        and later the result/telemetry.

        The shard slice is the deterministic round-robin subset
        ``faults[shard_index::shard_count]`` — probability-ranked fault
        lists spread their expensive early faults evenly across shards.
        Checkpointing and sharding both require unique fault ids (run
        ``FaultList.merge_equivalent()`` first).  A checkpoint whose
        header records another slice is refused: the fingerprint does not
        cover the shard spec (all shards share one identity), so resuming
        it would silently mix records from two shard layouts.
        """
        from .executors import CampaignPlan, record_from_payload

        if not len(self.fault_list):
            raise CampaignError("the fault list is empty")
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise CampaignError(
                f"invalid shard specification {shard_index}/{shard_count}: "
                "need 0 <= shard_index < shard_count")
        if preflight is not None and preflight != self.settings.preflight:
            self.settings = replace(self.settings, preflight=preflight)
        mode = self.settings.preflight
        if mode not in PREFLIGHT_MODES:
            raise CampaignError(
                f"unknown preflight mode {mode!r}; expected one of "
                f"{', '.join(PREFLIGHT_MODES)}")
        diagnostics: tuple = ()
        if mode != "off":
            from ..lint import preflight_campaign

            report = preflight_campaign(self.circuit, self.fault_list,
                                        self.settings.fault_model)
            diagnostics = report.diagnostics
            if mode == "error" and report.has_errors:
                raise PreflightError(
                    f"campaign preflight refused "
                    f"{self.fault_list.name!r}: {report.summary()}\n"
                    f"{report.format_text()}\n"
                    "(run with preflight='warn' to proceed anyway, or "
                    "preflight='off' to skip the analysis)",
                    diagnostics)
        faults = list(self.fault_list)
        indices = list(range(len(faults)))[shard_index::shard_count]
        fingerprint = ""
        completed: dict[int, dict] = {}
        if checkpoint is not None or shard_count > 1:
            from .checkpoint import campaign_fingerprint

            ids = [fault.fault_id for fault in faults]
            if len(set(ids)) != len(ids):
                raise CampaignError(
                    "checkpointing and sharding need unique fault ids to "
                    "key records; merge the fault list first "
                    "(merge_equivalent())")
            fingerprint = campaign_fingerprint(self.circuit, self.fault_list,
                                               self.settings)
        if checkpoint is not None:
            from .checkpoint import CampaignCheckpoint, header_slice, read_header

            store = CampaignCheckpoint.coerce(checkpoint)
            header = read_header(store.path)
            if header is not None:
                recorded = header_slice(store.path, header)
                if recorded != (shard_index, shard_count):
                    raise CampaignError(
                        f"checkpoint {store.path} was written by shard "
                        f"{recorded[0]}/{recorded[1]} but this run is shard "
                        f"{shard_index}/{shard_count}; use a fresh file per "
                        "shard slice")
            completed = store.load(
                fingerprint,
                timestep_mode=getattr(self.settings.timestep, "mode",
                                      "fixed"))
        preloaded: dict[int, FaultSimulationRecord] = {}
        pending: list[int] = []
        for index in indices:
            payload = completed.get(faults[index].fault_id)
            if payload is None:
                pending.append(index)
            else:
                preloaded[index] = record_from_payload(
                    faults[index], payload, source=store.path)
        return CampaignPlan(faults=faults, indices=indices, pending=pending,
                            preloaded=preloaded, fingerprint=fingerprint,
                            shard_index=shard_index, shard_count=shard_count,
                            preflight=mode, diagnostics=diagnostics)

    def run(self, progress_callback=None, checkpoint=None, *, executor=None,
            shard_index: int = 0, shard_count: int = 1) -> CampaignResult:
        """Run the whole campaign: plan, execute, collect.

        The *plan* stage (:meth:`plan`) takes this run's slice of the
        fault list — everything, or with ``shard_index``/``shard_count``
        the cross-host shard ``faults[shard_index::shard_count]`` — and
        partitions it against ``checkpoint`` (a path or a
        :class:`~repro.anafault.checkpoint.CampaignCheckpoint`): every
        finished record is persisted as it completes and, on a restart
        with the same circuit + fault list + settings, the fault ids
        already on disk are skipped — the merged result is
        indistinguishable from an uninterrupted run (timing telemetry
        aside).  A checkpoint written by a *different* campaign, or by
        another shard slice, raises :class:`~repro.errors.CampaignError`
        instead of mixing results.  A shard's checkpoint is its shard
        file: :func:`~repro.anafault.merge_shards` reassembles them.

        The *execute* stage is pluggable, and ``executor`` is the single
        execution seam (:mod:`repro.anafault.executors`): pass a
        ``BatchedExecutor(batch_width, early_abort, workers)`` for lockstep
        batches over a process pool (section II mentions the
        workstation-cluster parallelisation of AnaFAULT; fault-level
        parallelism is embarrassingly parallel), one of its width-1
        presets ``PoolExecutor(N)``/``SerialExecutor()``, or nothing for
        the serial default.  Any executor runs any slice.

        The *collect* stage assembles the ordered records, the executor's
        telemetry and the timings into the :class:`CampaignResult`.

        ``progress_callback(done, total, record)`` is invoked once per
        fault of this run's slice: up front for every checkpoint-skipped
        fault (with the reloaded record), then after every newly simulated
        one — so a resumed campaign reports monotone ``done/total``
        progress from its very first event instead of starting mid-count.
        """
        from .executors import BatchedExecutor, SerialExecutor

        if executor is None:
            # CI leg: REPRO_FORCE_BATCHED=<width> batches the serial
            # default, so the whole tier-1 suite doubles as a
            # batched-vs-serial differential harness, fixed and adaptive.
            # Explicit executors are never forced.
            forced = os.environ.get("REPRO_FORCE_BATCHED", "").strip()
            width = int(forced) if forced.isdigit() else 4 if forced else 1
            executor = (BatchedExecutor(batch_width=width) if width > 1
                        else SerialExecutor())

        start = _time.perf_counter()
        checkpoint_store = None
        if checkpoint is not None:
            from .checkpoint import CampaignCheckpoint

            checkpoint_store = CampaignCheckpoint.coerce(checkpoint)

        plan = self.plan(checkpoint=checkpoint_store,
                         shard_index=shard_index, shard_count=shard_count)
        nominal = self.run_nominal()

        records: list[FaultSimulationRecord | None] = [None] * len(plan.faults)
        done = 0
        for index in sorted(plan.preloaded):
            records[index] = plan.preloaded[index]
            done += 1
            if progress_callback is not None:
                progress_callback(done, plan.total, records[index])

        try:
            if checkpoint_store is not None:
                extra = {"timestep_mode": getattr(self.settings.timestep,
                                                  "mode", "fixed")}
                if plan.sharded:
                    extra.update(shard_index=plan.shard_index,
                                 shard_count=plan.shard_count)
                checkpoint_store.start(plan.fingerprint,
                                       campaign=self.fault_list.name,
                                       extra=extra)

            def emit(index: int, record: FaultSimulationRecord) -> None:
                nonlocal done
                if records[index] is not None:
                    # A checkpoint-skipped slot or a double emission: letting
                    # it through would double-count the fault in the
                    # telemetry step totals and append a duplicate
                    # checkpoint line (which a batched resume would then
                    # reload twice).  Executors must emit each pending index
                    # exactly once.
                    raise CampaignError(
                        f"executor emitted fault index {index} "
                        f"({record.fault.fault_id}) twice, or re-emitted a "
                        "checkpoint-skipped fault")
                records[index] = record
                if checkpoint_store is not None:
                    checkpoint_store.append(record)
                done += 1
                if progress_callback is not None:
                    progress_callback(done, plan.total, record)

            info = executor.execute(self, plan, nominal, emit)
        finally:
            if checkpoint_store is not None:
                checkpoint_store.close()

        result = CampaignResult(settings=self.settings,
                                fault_list=self.fault_list,
                                nominal=nominal,
                                nominal_elapsed_seconds=self._nominal_elapsed,
                                nominal_stats=dict(self._nominal_stats),
                                workers=info.workers,
                                executor=info.executor,
                                shard_index=plan.shard_index,
                                shard_count=plan.shard_count,
                                preflight=plan.preflight,
                                preflight_diagnostics=plan.diagnostics)
        result.records = records
        result.checkpoint_skipped = plan.skipped
        result.nominal_ipc_bytes = info.nominal_ipc_bytes
        result.batch_width = info.batch_width
        result.early_aborted = info.early_aborted
        result.service = dict(getattr(info, "service", None) or {})
        result.total_elapsed_seconds = _time.perf_counter() - start
        return result


def run_campaign(circuit: Circuit, fault_list: FaultList,
                 settings: CampaignSettings | None = None,
                 checkpoint=None, *, executor=None) -> CampaignResult:
    """Convenience wrapper: build a :class:`FaultSimulator` and run it.

    ``executor``/``checkpoint`` are forwarded to
    :meth:`FaultSimulator.run` — the same single execution seam."""
    return FaultSimulator(circuit, fault_list, settings).run(
        checkpoint=checkpoint, executor=executor)
