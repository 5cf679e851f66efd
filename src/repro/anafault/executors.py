"""Pluggable campaign execution: plan -> execute -> collect.

The campaign layer used to be one monolithic ``FaultSimulator.run`` that
hand-wove checkpoint loading, pending-fault partitioning, nominal
publication, pool lifetime and record merging.  This module gives each of
those concerns a seam:

* **plan** — :class:`CampaignPlan` captures *what* one run will simulate:
  the ordered fault list, this run's (possibly sharded) slice of it, the
  skipped/pending partition derived from a checkpoint, and the campaign
  fingerprint that keys every persisted record.  A shard — one
  deterministic ``shard_index/shard_count`` slice persisted as a
  fingerprint-keyed JSONL checkpoint — is the unit of cross-host
  distribution (section II of the paper: AnaFAULT was extended to run
  campaigns on a workstation cluster); ``FaultSimulator.run`` takes the
  slice as two arguments.
* **execute** — a :class:`CampaignExecutor` decides *how* the pending
  faults are simulated.  :class:`BatchedExecutor` is the one local
  implementation: plan-order batches of ``batch_width`` faults run in
  lockstep, in-process or over ``workers`` pool processes, optionally
  with ``early_abort``.  :class:`SerialExecutor` (one fault at a time)
  and :class:`PoolExecutor` (one fault at a time over a pool) are its
  width-1 presets.  Every executor runs any slice.
* **collect** — :func:`merge_shards` assembles N shard files back into one
  :class:`~repro.anafault.simulator.CampaignResult`, record for record
  identical to the unsharded run; it refuses fingerprint mismatches and
  overlapping shards, and reports missing-id holes.

``FaultSimulator.run`` is a thin pipeline over these three stages, and
any future executor only has to implement
:meth:`CampaignExecutor.execute`.  The command-line front end that drives
two-host campaigns with nothing but a shared netlist and an rsync'd
directory lives in :mod:`repro.anafault.cli`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..errors import CampaignError
from ..lift.faults import Fault
from .simulator import (
    STATUS_DETECTED,
    STATUS_INJECTION_FAILED,
    STATUS_SIM_FAILED,
    STATUS_UNDETECTED,
    CampaignResult,
    CampaignSettings,
    FaultSimulationRecord,
)

#: Callback an executor invokes for every newly simulated record:
#: ``emit(index, record)`` with ``index`` the fault's position in the full
#: campaign fault list.  The campaign manager owns it and uses it to slot
#: the record into the result, append it to the checkpoint and fire the
#: user's progress callback — executors never touch those concerns.
EmitCallback = Callable[[int, FaultSimulationRecord], None]


#: Every verdict a persisted record may carry.
RECORD_STATUSES = (STATUS_DETECTED, STATUS_UNDETECTED, STATUS_SIM_FAILED,
                   STATUS_INJECTION_FAILED)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def record_from_payload(fault: Fault, payload: dict, reloaded: bool = True,
                        source=None) -> FaultSimulationRecord:
    """Rebuild a :class:`~repro.anafault.simulator.FaultSimulationRecord`
    from its checkpoint JSON payload.

    The fault object itself comes from the campaign's own fault list (the
    checkpoint persists only the fault id).  ``payload_bytes`` stays 0:
    nothing crossed IPC for a reloaded record, and telemetry reports what
    *this* run paid.  ``reloaded=False`` is for records that *are* this
    run's fresh work arriving as payloads — the campaign service's workers
    report records over the wire, and :class:`~repro.anafault.remote.RemoteExecutor`
    must count their kernel work exactly once (only a checkpoint reload
    re-reads work a previous run already counted).

    Every field is checked: an unknown status, a count that is not a
    non-negative integer, a non-numeric deviation or time, or a malformed
    order histogram raises :class:`~repro.errors.CampaignError` naming the
    fault id, the field and ``source`` (the file or service the payload
    came from).  Missing or null fields take the record defaults — older
    checkpoints carry no ``attempt`` or ``order_histogram``.
    """
    origin = f" from {source}" if source is not None else ""
    if not isinstance(payload, dict):
        raise CampaignError(
            f"record for fault id {fault.fault_id}{origin} is "
            f"{type(payload).__name__}, not a JSON object")

    def field(name: str, default, valid, expected: str):
        value = payload.get(name)
        if value is None:
            return default
        if not valid(value):
            raise CampaignError(
                f"record for fault id {fault.fault_id}{origin} has "
                f"{name}={value!r}; expected {expected}")
        return value

    count = "a non-negative integer"
    return FaultSimulationRecord(
        fault=fault,
        status=field("status", STATUS_SIM_FAILED,
                     lambda v: v in RECORD_STATUSES,
                     f"one of {', '.join(RECORD_STATUSES)}"),
        detection_time=field("detection_time", None,
                             lambda v: _is_real(v) and math.isfinite(v),
                             "a finite number or null"),
        detected_on=field("detected_on", "", lambda v: isinstance(v, str),
                          "a string"),
        max_deviation=float(field("max_deviation", 0.0, _is_real,
                                  "a number")),
        persistent_deviation=float(field("persistent_deviation", 0.0,
                                         _is_real, "a number")),
        elapsed_seconds=float(field("elapsed_seconds", 0.0, _is_real,
                                    "a number")),
        message=field("message", "", lambda v: isinstance(v, str),
                      "a string"),
        newton_iterations=field("newton_iterations", 0, _is_count, count),
        steps_accepted=field("steps_accepted", 0, _is_count, count),
        steps_rejected=field("steps_rejected", 0, _is_count, count),
        trace_bytes=field("trace_bytes", 0, _is_count, count),
        payload_bytes=0,
        reloaded=reloaded,
        attempt=field("attempt", 1, lambda v: _is_count(v) and v >= 1,
                      "an integer >= 1"),
        order_histogram=dict(field(
            "order_histogram", {},
            lambda v: isinstance(v, dict) and all(map(_is_count, v.values())),
            "an object of non-negative integer counts")))


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass
class CampaignPlan:
    """What one campaign run will simulate (the *plan* stage).

    Built by :meth:`~repro.anafault.FaultSimulator.plan` from the fault
    list, an optional checkpoint and an optional shard specification.  All
    index values refer to positions in :attr:`faults` — the full, ordered
    campaign fault list — so records from different shards or resumes
    always land in the same slots.
    """

    #: The full, ordered campaign fault list (never sliced).
    faults: list[Fault]
    #: This run's slice of ``range(len(faults))``: everything for an
    #: unsharded run, the deterministic round-robin subset
    #: ``indices[shard_index::shard_count]`` for a shard.
    indices: list[int]
    #: Fault-list indices still to simulate this run (a subset of
    #: :attr:`indices` — index into :attr:`faults` directly).
    pending: list[int]
    #: Records reloaded from the checkpoint, keyed by fault-list index.
    preloaded: dict[int, FaultSimulationRecord] = field(default_factory=dict)
    #: Campaign identity (:func:`repro.anafault.campaign_fingerprint`);
    #: empty for plain runs that neither checkpoint nor shard.
    fingerprint: str = ""
    shard_index: int = 0
    shard_count: int = 1
    #: Preflight mode the plan was built under (``"error"``, ``"warn"`` or
    #: ``"off"``); travels into the campaign result and its telemetry.
    preflight: str = "warn"
    #: Diagnostics the campaign preflight reported (empty when the mode is
    #: ``"off"`` or the inputs are clean).  In ``"error"`` mode
    #: :meth:`~repro.anafault.FaultSimulator.plan` raises
    #: :class:`~repro.errors.PreflightError` instead of building a plan
    #: that carries error-severity diagnostics.
    diagnostics: tuple = ()

    @property
    def total(self) -> int:
        """Faults this run is responsible for (its slice, not the list)."""
        return len(self.indices)

    @property
    def skipped(self) -> int:
        """Faults of this run's slice already satisfied by the checkpoint."""
        return len(self.preloaded)

    @property
    def sharded(self) -> bool:
        """Whether this plan covers a proper subset of the fault list."""
        return self.shard_count > 1


# ---------------------------------------------------------------------------
# Execute
# ---------------------------------------------------------------------------

@dataclass
class ExecutionInfo:
    """How an executor ran a plan (collected into the campaign telemetry)."""

    #: Executor label (``"serial"``, ``"pool"``, ``"batched"``, ...).
    executor: str = "serial"
    #: Worker processes actually used (1 = in-process).
    workers: int = 1
    #: Pickled size of the nominal payload one worker received (0 serial).
    nominal_ipc_bytes: int = 0
    #: Lockstep batch width of a :class:`BatchedExecutor` run (0 per-fault).
    batch_width: int = 0
    #: Fault variants stopped early because their verdict was already
    #: decided (``BatchedExecutor(early_abort=True)`` only).
    early_aborted: int = 0
    #: Scheduler-daemon counters and per-worker throughput of a
    #: :class:`~repro.anafault.remote.RemoteExecutor` run (empty for the
    #: local executors); copied onto ``CampaignResult.service``.
    service: dict = field(default_factory=dict)


class CampaignExecutor(Protocol):
    """The execution seam of the campaign layer.

    An executor receives the planned campaign and simulates the pending
    faults, reporting each finished record through ``emit`` — in plan
    order, as soon as it is available, so the campaign manager can
    checkpoint incrementally.  It returns an :class:`ExecutionInfo`
    describing how the work was performed (its ``executor`` label is what
    the campaign telemetry reports).  Executors never build results,
    open checkpoints, choose the shard slice or fire progress callbacks;
    those stay with ``FaultSimulator.run``.
    """

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Simulate ``plan.pending`` and emit every record as it finishes."""
        ...  # pragma: no cover - protocol


#: Target number of map batches handed to each pool worker over a
#: campaign.  Larger values improve tail load-balancing, smaller values
#: cut IPC.
BATCHES_PER_WORKER = 4

#: Per-process state of a pool worker, set once by :func:`_init_worker`.
_WORKER_STATE: dict[str, object] = {}


def _positive_count(name: str, value) -> int:
    """``value`` as an ``int`` if it is an integer >= 1 (numpy integers
    included, bools not); :class:`CampaignError` naming ``name`` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise CampaignError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def campaign_chunksize(num_faults: int, workers: int) -> int:
    """Chunk size for ``ProcessPoolExecutor.map`` over ``num_faults``
    tasks (faults or batches) and ``workers >= 1`` processes."""
    return max(1, num_faults // (workers * BATCHES_PER_WORKER))


def _init_worker(circuit, settings, nominal) -> None:
    """Pool initialiser: build one simulator per worker process and bind
    it, with the nominal waveforms (pickled into the worker once), to
    :func:`_simulate_batch`."""
    from .simulator import FaultSimulator

    _WORKER_STATE["simulate"] = functools.partial(
        _simulate_batch, FaultSimulator.for_worker(circuit, settings),
        nominal)


def _simulate_batch(simulator, nominal: dict, early_abort: bool,
                    faults: list[Fault]) -> tuple[list, int]:
    """Records of one lockstep batch (in ``faults`` order) and the number
    of variants stopped early.  A lone fault without early abort goes
    through :meth:`~repro.anafault.FaultSimulator.simulate_fault`, the
    per-fault entry point, which is the same one-variant lockstep run."""
    if len(faults) == 1 and not early_abort:
        return [simulator.simulate_fault(faults[0], nominal)], 0
    return simulator._simulate_lockstep(faults, nominal,
                                        early_abort=early_abort)


def _simulate_batch_in_worker(early_abort: bool,
                              faults: list[Fault]) -> tuple[list, int]:
    """Pool task: one batch on the worker's simulator, each record
    stamped with its IPC cost."""
    records, aborted = _WORKER_STATE["simulate"](early_abort, faults)
    for record in records:
        # Stamping the field perturbs the measured size by a few bytes.
        record.payload_bytes = len(pickle.dumps(record))
    return records, aborted


class BatchedExecutor:
    """The local campaign executor: the pending faults, cut into
    plan-order batches of ``batch_width``, each run as one lockstep
    transient (:meth:`~repro.anafault.FaultSimulator._simulate_lockstep`:
    one :class:`~repro.spice.analysis.BatchedTransient` over the batch's
    variants, every print row streamed into a per-variant
    :class:`~repro.anafault.StreamingDetector`), in this process or over
    ``workers`` pool processes; records are emitted in plan order as their
    batch finishes.  :class:`SerialExecutor` and :class:`PoolExecutor` are
    its width-1 presets.

    The settings compose, and without ``early_abort`` every record field
    but ``elapsed_seconds`` equals the serial record (the lockstep Newton
    rounds hand each variant bitwise the floats it computes alone;
    ``tests/test_batched.py`` locks this down, fixed and adaptive).
    ``elapsed_seconds`` is the fault's injection time plus an equal share
    of its batch's kernel time.  ``early_abort=True`` stops a variant the
    moment its verdict is decided: status, detection time and detected
    signal are unchanged (the persistence run that fired cannot unfire),
    while the deviations and step counters cover only the simulated
    prefix.  A variant that fails to converge is evicted to the failure
    record serial execution produces, without perturbing its siblings.
    See ``docs/campaigns.md`` (the one executor) and ``docs/batching.md``.
    """

    def __init__(self, batch_width: int = 8, early_abort: bool = False,
                 workers: int = 1):
        self.batch_width = _positive_count("batch_width", batch_width)
        self.early_abort = bool(early_abort)
        self.workers = _positive_count("workers", workers)

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Run ``plan.pending`` in batches, emitting in plan order."""
        width = self.batch_width
        chunks = [plan.pending[start:start + width]
                  for start in range(0, len(plan.pending), width)]
        batches = [[plan.faults[i] for i in chunk] for chunk in chunks]
        workers = max(1, min(self.workers, len(chunks)))
        info = ExecutionInfo(  # the label names what actually ran
            executor=("batched" if width > 1 else
                      "pool" if workers > 1 else "serial"),
            workers=workers, batch_width=width if width > 1 else 0)
        with contextlib.ExitStack() as stack:
            if workers == 1:
                # Lazy: each batch runs inside its own _execute_batch.
                outcomes = map(functools.partial(
                    _simulate_batch, simulator, nominal, self.early_abort),
                    batches)
            else:
                from concurrent.futures import ProcessPoolExecutor

                info.nominal_ipc_bytes = len(pickle.dumps(nominal))
                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker,
                    initargs=(simulator.circuit, simulator.settings,
                              nominal)))
                outcomes = pool.map(
                    functools.partial(_simulate_batch_in_worker,
                                      self.early_abort),
                    batches, chunksize=campaign_chunksize(len(batches),
                                                          workers))
            for chunk in chunks:
                self._execute_batch(outcomes, emit, chunk, info)
        return info

    def _execute_batch(self, outcomes, emit: EmitCallback,
                       chunk: list[int], info: ExecutionInfo) -> None:
        """Take the next batch outcome and emit its records."""
        records, aborted = next(outcomes)
        info.early_aborted += aborted
        for index, record in zip(chunk, records):
            emit(index, record)


class SerialExecutor(BatchedExecutor):
    """Preset: every pending fault in-process, one after the other."""

    # Bound on the preset itself so ``SerialExecutor.execute`` stays an
    # entry point of its own (the perf benchmark's layer tracer wraps it).
    execute = BatchedExecutor.execute

    def __init__(self):
        super().__init__(batch_width=1)


class PoolExecutor(BatchedExecutor):
    """Preset: the pending faults one at a time over ``workers`` local
    pool processes (in-process when only one fault is pending)."""

    def __init__(self, workers: int):
        super().__init__(batch_width=1, workers=workers)


# ---------------------------------------------------------------------------
# Collect
# ---------------------------------------------------------------------------

def merge_shards(circuit, fault_list, settings: CampaignSettings | None,
                 shard_paths, require_complete: bool = False) -> CampaignResult:
    """Assemble shard JSONL files into one :class:`CampaignResult`.

    The collector of a cross-host campaign: given the *same* circuit,
    fault list and settings every shard ran with, reads the given shard
    checkpoint files and returns a result whose records (in fault-list
    order) are record-for-record identical to a single-host run of the
    whole campaign.

    Safety properties:

    * a shard written for a **different campaign** (fingerprint mismatch:
      other netlist, fault list or verdict-relevant settings) raises
      :class:`~repro.errors.CampaignError` instead of mixing results,
    * **incompatible splits refuse**: shard headers record their
      ``shard_index``/``shard_count``, and files whose declared counts
      disagree (host command lines drifted, e.g. a 2-way and a 3-way
      shard) or whose indices collide are rejected up front — even when
      their fault ids happen not to overlap,
    * **overlapping shards** — the same fault id in two files, e.g. two
      hosts accidentally running the same ``shard_index`` — refuse with
      the colliding id and both file names,
    * a **missing shard** leaves ``None`` holes in the record list, which
      every ``CampaignResult`` aggregate (``telemetry()``, ``coverage()``,
      the report tables) already tolerates; pass ``require_complete=True``
      to turn the holes into a :class:`~repro.errors.CampaignError` that
      names the missing fault ids.
    """
    from .checkpoint import (CampaignCheckpoint, campaign_fingerprint,
                             header_slice, read_header)

    settings = settings or CampaignSettings()
    faults = list(fault_list)
    if not faults:
        raise CampaignError("the fault list is empty")
    ids = [fault.fault_id for fault in faults]
    if len(set(ids)) != len(ids):
        raise CampaignError(
            "merging shards needs unique fault ids to key records; "
            "merge the fault list first (merge_equivalent())")
    fingerprint = campaign_fingerprint(circuit, fault_list, settings)
    index_of = {fault.fault_id: index for index, fault in enumerate(faults)}
    records: list[FaultSimulationRecord | None] = [None] * len(faults)
    source: dict[int, pathlib.Path] = {}
    slices: dict[int, pathlib.Path] = {}
    declared_count: tuple[int, pathlib.Path] | None = None
    for path in shard_paths:
        path = pathlib.Path(path)
        if not path.exists():
            raise CampaignError(f"shard file {path} does not exist")
        header = read_header(path) or {}
        if "shard_index" in header:
            # Drifted splits can produce disjoint fault ids (no overlap to
            # trip on) yet silent holes; the declared slices must agree.
            index, count = header_slice(path, header)
            if declared_count is not None and count != declared_count[0]:
                raise CampaignError(
                    f"shards disagree on the split: {declared_count[1]} was "
                    f"written for shard_count={declared_count[0]} but "
                    f"{path} for shard_count={count}")
            declared_count = (count, path)
            if index in slices:
                raise CampaignError(
                    f"shards overlap: both {slices[index]} and {path} were "
                    f"written for shard index {index}")
            slices[index] = path
        completed = CampaignCheckpoint(path).load(fingerprint)
        for fault_id, payload in completed.items():
            if fault_id in source:
                raise CampaignError(
                    f"shards overlap: fault id {fault_id} appears in both "
                    f"{source[fault_id]} and {path}; every fault must come "
                    "from exactly one shard")
            index = index_of.get(fault_id)
            if index is None:
                raise CampaignError(
                    f"shard {path} carries fault id {fault_id}, which is "
                    "not in the campaign fault list")
            source[fault_id] = path
            records[index] = record_from_payload(faults[index], payload,
                                                 source=path)
    if require_complete:
        missing = [fault.fault_id
                   for fault, record in zip(faults, records) if record is None]
        if missing:
            raise CampaignError(
                f"merged shards are missing {len(missing)} fault id(s): "
                f"{missing}")
    result = CampaignResult(settings=settings, fault_list=fault_list,
                            workers=1)
    result.records = records
    result.executor = "merge"
    result.checkpoint_skipped = len(source)
    return result
