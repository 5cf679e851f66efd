"""The campaign service: a lease-based fault-simulation scheduler daemon.

PR 5 stopped at "run one shard per host by hand"; this module is the named
follow-on (see ``ROADMAP.md``): a long-running daemon that owns a
**persistent campaign queue** and serves it to any number of workers and
clients concurrently — the Server / LabController / Client split of lab
schedulers like Beaker, scaled down to one file.  The pieces:

* :class:`LeaseMachine` — the pure lease/retry state machine, one instance
  per campaign.  Every fault moves ``pending -> leased -> completed``, with
  two failure edges back to ``pending`` (an **expired lease** — the worker
  stopped talking — or an explicit **failure report**), each consuming one
  of ``max_attempts`` tries before the fault is **exhausted**.  Leases are
  *size-balanced*: slices are filled against a cost budget derived from
  per-fault cost telemetry (prior records' ``elapsed_seconds``), so one
  expensive fault travels alone while cheap faults batch up.  The machine
  is deliberately free of I/O, sockets and clocks (time is an argument) so
  its invariants can be property-tested in isolation
  (``tests/test_service.py``).
* :class:`CampaignJob` — one submitted campaign: the parsed circuit, fault
  list and settings, the fingerprint-keyed JSONL **queue file** (the
  standard checkpoint format — a daemon queue file *is* a campaign
  checkpoint, resumable and ``merge``-able), and the job's lease machine.
* :class:`CampaignService` — the daemon state: a spool directory of jobs
  and one ``handle(request) -> response`` dispatcher for the wire protocol
  (:mod:`repro.anafault.wire`).  Jobs survive daemon restarts: the spool
  keeps a descriptor + queue file per campaign and reloads both on start.
* :func:`serve` — the TCP front end (one thread per connection, one JSON
  line per request) plus the ``python -m repro.anafault serve`` loop.

Expiry is **lazy**: every request first sweeps the deadlines of the jobs it
touches, so a dead worker's leases return to the queue as soon as any live
worker or client speaks to the daemon — the idle-poll loop of
:class:`~repro.anafault.remote.WorkerClient` doubles as the watchdog tick.
Duplicate completions (a worker finishing after its lease expired and was
re-served elsewhere) are deduplicated by the machine: the first completion
wins, every later one is counted and dropped, and the queue file therefore
never carries two records for one fault.  See ``docs/service.md`` for the
protocol reference and failure semantics.
"""

from __future__ import annotations

import json
import pathlib
import socketserver
import threading
import time as _time

from ..errors import CampaignError, ReproError
from ..lift.faultlist import FaultList
from ..spice.parser import parse_netlist
from .checkpoint import CampaignCheckpoint, campaign_fingerprint
from .executors import record_from_payload
from .simulator import STATUS_DETECTED, STATUS_SIM_FAILED
from .wire import settings_from_wire

#: Fault states of the lease machine.
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"
EXHAUSTED = "exhausted"

#: Job states.
JOB_OPEN = "open"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"

#: Defaults a job is created with (``submit`` may override per campaign).
DEFAULT_LEASE_TTL = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_LEASE_SIZE = 4


class LeaseMachine:
    """Lease/retry bookkeeping for one campaign's fault queue.

    Pure state, no I/O: every mutating method takes ``now`` explicitly and
    returns what happened, so the scheduler daemon, the unit tests and the
    hypothesis property suite all drive the same object.  The invariants
    the property suite enforces over arbitrary event interleavings:

    * every fault ends in exactly one terminal state — ``completed``
      (accepted exactly once) or ``exhausted`` (after ``max_attempts``
      consumed tries),
    * :meth:`complete` returns ``True`` (i.e. the daemon emits/persists a
      record) **at most once per fault**, no matter how many workers race,
    * a fault is never leased to two workers at the same time, and
    * total consumed attempts per fault never exceed ``max_attempts``.

    An *attempt* is consumed by a lease that ends badly — an expiry
    (:meth:`expire`) or an explicit failure report (:meth:`fail`).  A
    graceful give-back (:meth:`release`) consumes nothing: the worker is
    shutting down, not failing.
    """

    def __init__(self, fault_ids, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 lease_size: int = DEFAULT_LEASE_SIZE):
        fault_ids = [_fault_id(fault_id, "the lease machine")
                     for fault_id in fault_ids]
        if len(set(fault_ids)) != len(fault_ids):
            raise CampaignError(
                "the lease machine keys its queue by fault id and needs "
                "unique ids; merge the fault list first (merge_equivalent())")
        for name, value in (("max_attempts", max_attempts),
                            ("lease_size", lease_size)):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise CampaignError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if (isinstance(lease_ttl, bool)
                or not isinstance(lease_ttl, (int, float))
                or not 0.0 < lease_ttl < float("inf")):  # NaN too
            raise CampaignError(
                f"lease_ttl must be a finite number > 0, got {lease_ttl!r}")
        self.max_attempts = max_attempts
        self.lease_ttl = float(lease_ttl)
        self.lease_size = lease_size
        #: fault id -> state (:data:`PENDING` .. :data:`EXHAUSTED`).
        self.state: dict[int, str] = {fid: PENDING for fid in fault_ids}
        self._order = list(fault_ids)
        self._rank = {fid: rank for rank, fid in enumerate(fault_ids)}
        #: Consumed (badly ended) attempts per fault.
        self.failures: dict[int, int] = {fid: 0 for fid in fault_ids}
        #: Last failure message per fault (for the exhaustion record).
        self.messages: dict[int, str] = {}
        #: fault id -> (worker, deadline) of the live leases.
        self.leases: dict[int, tuple[str, float]] = {}
        #: Cost prior per fault (seconds; fed by :meth:`observe_cost`).
        self.costs: dict[int, float] = {}
        self._observed_total = 0.0
        self._observed_count = 0
        # Counters surfaced by the daemon's status op.
        self.leases_granted = 0
        self.leases_expired = 0
        self.completions = 0
        self.duplicates = 0
        self.failure_reports = 0
        self.retries = 0

    # -- cost model ----------------------------------------------------
    def estimated_cost(self, fault_id: int) -> float:
        """Expected seconds for ``fault_id``: its own prior if one exists,
        else the running mean of this queue's completions, else 1.0."""
        cost = self.costs.get(fault_id)
        if cost is not None and cost > 0.0:
            return cost
        if self._observed_count:
            return max(self._observed_total / self._observed_count, 1e-9)
        return 1.0

    def observe_cost(self, fault_id: int, seconds: float) -> None:
        """Feed one measured per-fault cost back into the estimator (future
        leases of a resumed or retried queue balance against it)."""
        seconds = max(float(seconds), 0.0)
        self.costs[int(fault_id)] = max(seconds, 1e-9)
        self._observed_total += seconds
        self._observed_count += 1

    # -- events --------------------------------------------------------
    def lease(self, worker: str, now: float) -> list[int]:
        """Grant ``worker`` a size-balanced slice of pending faults.

        The slice is filled greedily from the most expensive pending fault
        down, and stops once its estimated cost reaches the budget
        ``lease_size * mean pending cost`` (or ``lease_size`` faults) — an
        expensive straggler therefore travels alone while cheap faults
        batch up, which is what keeps worker finish times balanced (the
        round-robin alternative hands every worker the same *count*, not
        the same *work*).  Returns ``[]`` when nothing is pending; expired
        leases are swept first, so a caller polling :meth:`lease` is also
        the watchdog.
        """
        self.expire(now)
        pending = [fid for fid in self._order if self.state[fid] == PENDING]
        if not pending:
            return []
        by_cost = sorted(pending, key=lambda fid: (-self.estimated_cost(fid),
                                                   self._rank[fid]))
        mean = (sum(self.estimated_cost(fid) for fid in pending)
                / len(pending))
        budget = self.lease_size * mean
        slice_ids: list[int] = []
        slice_cost = 0.0
        for fault_id in by_cost:
            cost = self.estimated_cost(fault_id)
            if slice_ids and (len(slice_ids) >= self.lease_size
                              or slice_cost + cost > budget):
                break
            slice_ids.append(fault_id)
            slice_cost += cost
        deadline = now + self.lease_ttl
        for fault_id in slice_ids:
            self.state[fault_id] = LEASED
            self.leases[fault_id] = (worker, deadline)
        self.leases_granted += 1
        return slice_ids

    def touch(self, worker: str, now: float) -> None:
        """Extend the deadlines of ``worker``'s live leases (any protocol
        interaction proves the worker alive, so a worker chewing through a
        multi-fault slice is not expired mid-slice)."""
        deadline = now + self.lease_ttl
        for fault_id, (holder, _) in list(self.leases.items()):
            if holder == worker:
                self.leases[fault_id] = (holder, deadline)

    def expire(self, now: float) -> tuple[list[int], list[int]]:
        """Sweep expired leases; returns ``(requeued, exhausted)`` ids.

        Each expiry consumes one attempt — a worker that keeps dying (or a
        fault that keeps hanging its worker) therefore cannot keep a fault
        in the queue forever.  Exhausted ids need a failure record from
        the caller (:meth:`CampaignJob.sweep` synthesises it).
        """
        requeued: list[int] = []
        exhausted: list[int] = []
        for fault_id, (worker, deadline) in list(self.leases.items()):
            if deadline > now:
                continue
            del self.leases[fault_id]
            self.leases_expired += 1
            self.messages.setdefault(
                fault_id, f"lease expired on worker {worker!r}")
            if self._consume_attempt(fault_id):
                requeued.append(fault_id)
            else:
                exhausted.append(fault_id)
        return requeued, exhausted

    def complete(self, fault_id: int, worker: str, now: float) -> bool:
        """Report a finished simulation; ``True`` iff this is the fault's
        *first* completion (i.e. the caller should persist/emit the
        record).

        Late completions — the lease expired, the fault was re-leased, and
        both workers eventually answer — are expected under chaos, not an
        error: the first answer wins (faults are deterministic transients,
        so any completion is *the* result), later ones are dropped and
        counted in :attr:`duplicates`.  A completion also revalidates the
        worker's other leases (:meth:`touch`).
        """
        fault_id = self._known(fault_id, "complete")
        self.leases.pop(fault_id, None)
        self.touch(worker, now)
        if self.state[fault_id] in (COMPLETED, EXHAUSTED):
            self.duplicates += 1
            return False
        self.state[fault_id] = COMPLETED
        self.completions += 1
        return True

    def fail(self, fault_id: int, worker: str, now: float,
             message: str = "") -> str:
        """Report a failed attempt; returns ``"retry"``, ``"exhausted"``
        or ``"stale"`` (the fault already completed elsewhere — nothing to
        retry)."""
        fault_id = self._known(fault_id, "fail")
        if self.state[fault_id] in (COMPLETED, EXHAUSTED):
            return "stale"
        self.leases.pop(fault_id, None)
        self.touch(worker, now)
        self.failure_reports += 1
        if message:
            self.messages[fault_id] = message
        if self._consume_attempt(fault_id):
            return "retry"
        return "exhausted"

    def release(self, fault_ids, worker: str) -> int:
        """Gracefully hand leased faults back to the queue (worker
        shutdown); consumes no attempt.  Returns how many were requeued."""
        released = 0
        for fault_id in fault_ids:
            fault_id = _fault_id(fault_id, "release")
            lease = self.leases.get(fault_id)
            if lease is None or lease[0] != worker:
                continue
            del self.leases[fault_id]
            self.state[fault_id] = PENDING
            released += 1
        return released

    def _consume_attempt(self, fault_id: int) -> bool:
        """Burn one attempt; ``True`` -> requeued, ``False`` -> exhausted."""
        self.failures[fault_id] += 1
        if self.failures[fault_id] >= self.max_attempts:
            self.state[fault_id] = EXHAUSTED
            return False
        self.state[fault_id] = PENDING
        self.retries += 1
        return True

    # -- queries -------------------------------------------------------
    def attempt_number(self, fault_id: int) -> int:
        """1-based attempt a lease of ``fault_id`` would be running."""
        return self.failures[self._known(fault_id, "attempt_number")] + 1

    def _known(self, fault_id, op: str) -> int:
        """``fault_id`` if it is the integer id of a fault of this queue
        (never a bool or a float that ``int()`` would truncate)."""
        fault_id = _fault_id(fault_id, op)
        if fault_id not in self.state:
            raise CampaignError(f"unknown fault id {fault_id}")
        return fault_id

    @property
    def done(self) -> bool:
        """Whether every fault reached a terminal state."""
        return all(state in (COMPLETED, EXHAUSTED)
                   for state in self.state.values())

    def counts(self) -> dict:
        """State counts + event counters (the daemon's status payload)."""
        tally = {PENDING: 0, LEASED: 0, COMPLETED: 0, EXHAUSTED: 0}
        for state in self.state.values():
            tally[state] += 1
        return {
            "pending": tally[PENDING],
            "leased": tally[LEASED],
            "completed": tally[COMPLETED],
            "exhausted": tally[EXHAUSTED],
            "leases_granted": self.leases_granted,
            "leases_expired": self.leases_expired,
            "duplicates": self.duplicates,
            "failure_reports": self.failure_reports,
            "retries": self.retries,
            "attempts_consumed": sum(self.failures.values()),
        }


class CampaignJob:
    """One submitted campaign inside the daemon.

    Owns the parsed inputs, the campaign fingerprint, the lease machine
    and the fingerprint-keyed JSONL **queue file** (the standard
    checkpoint format, so the file is directly resumable by ``run
    --checkpoint`` and mergeable/verifiable by the ``merge`` CLI).  A job
    descriptor (``<fingerprint>.job.json``) persists the wire payload next
    to the queue file; :meth:`CampaignService.load_spool` rebuilds both on
    daemon restart, with every previously completed record pre-marked
    completed and its measured cost feeding the lease balancer.
    """

    def __init__(self, spool: pathlib.Path, payload: dict,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 lease_size: int = DEFAULT_LEASE_SIZE):
        self.settings = settings_from_wire(payload["settings"])
        self.payload = {"netlist": str(payload["netlist"]),
                        "faults": str(payload["faults"]),
                        "settings": dict(payload["settings"])}
        parsed = parse_netlist(self.payload["netlist"])
        self.circuit = parsed.circuit
        self.fault_list = FaultList.loads(self.payload["faults"])
        ids = [fault.fault_id for fault in self.fault_list]
        if len(set(ids)) != len(ids):
            raise CampaignError(
                "the campaign service keys its queue by fault id and needs "
                "unique ids; merge the fault list first (merge_equivalent())")
        if not ids:
            raise CampaignError("the fault list is empty")
        self.faults_by_id = {fault.fault_id: fault
                             for fault in self.fault_list}
        self.fingerprint = campaign_fingerprint(self.circuit, self.fault_list,
                                                self.settings)
        self.queue_path = spool / f"{self.fingerprint}.jsonl"
        self.descriptor_path = spool / f"{self.fingerprint}.job.json"
        self.queue = CampaignCheckpoint(self.queue_path)
        #: Accepted record payloads keyed by fault id (the results op).
        self.records: dict[int, dict] = self.queue.load(self.fingerprint)
        self.machine = LeaseMachine(ids, max_attempts=max_attempts,
                                    lease_ttl=lease_ttl,
                                    lease_size=lease_size)
        #: Per-worker throughput: worker -> completed/duplicate/failed
        #: counts and busy seconds (sum of record ``elapsed_seconds``).
        self.workers: dict[str, dict] = {}
        self.submitted = _time.time()
        self.state = JOB_OPEN
        for fault_id, record in self.records.items():
            if fault_id not in self.machine.state:
                raise CampaignError(
                    f"queue file {self.queue_path} carries fault id "
                    f"{fault_id}, which is not in the submitted fault list")
            self.machine.state[fault_id] = COMPLETED
            cost = float(record.get("elapsed_seconds") or 0.0)
            if cost > 0.0:
                self.machine.observe_cost(fault_id, cost)
        self.resumed = len(self.records)
        if self.machine.done:
            self.state = JOB_DONE
        self.queue.start(self.fingerprint, campaign=self.fault_list.name)
        self._write_descriptor()

    # ------------------------------------------------------------------
    def _write_descriptor(self) -> None:
        descriptor = {
            "fingerprint": self.fingerprint,
            "state": self.state,
            "campaign": self.fault_list.name,
            "lease_ttl": self.machine.lease_ttl,
            "max_attempts": self.machine.max_attempts,
            "lease_size": self.machine.lease_size,
            "submitted": self.submitted,
            "payload": self.payload,
        }
        self.descriptor_path.write_text(
            json.dumps(descriptor, indent=1), encoding="utf-8")

    def _worker(self, worker: str) -> dict:
        return self.workers.setdefault(
            str(worker), {"completed": 0, "duplicates": 0, "failed": 0,
                          "busy_seconds": 0.0})

    def sweep(self, now: float) -> None:
        """Lazy watchdog tick: expire stale leases, synthesise failure
        records for freshly exhausted faults, refresh the job state."""
        if self.state != JOB_OPEN:
            return
        _, exhausted = self.machine.expire(now)
        for fault_id in exhausted:
            self._record_exhaustion(fault_id)
        if self.machine.done:
            self.state = JOB_DONE
            self._write_descriptor()

    def _record_exhaustion(self, fault_id: int) -> None:
        """Persist the bounded-retry failure record of ``fault_id``
        (mirrors the serial ``count_failed_as_detected`` classification of
        a fault whose simulation cannot be completed)."""
        detected = bool(self.settings.count_failed_as_detected)
        payload = {
            "status": STATUS_DETECTED if detected else STATUS_SIM_FAILED,
            "detection_time": 0.0 if detected else None,
            "detected_on": "",
            "max_deviation": 0.0,
            "elapsed_seconds": 0.0,
            "message": (f"gave up after {self.machine.max_attempts} "
                        f"attempt(s): "
                        f"{self.machine.messages.get(fault_id, 'failed')}"),
            "newton_iterations": 0,
            "steps_accepted": 0,
            "steps_rejected": 0,
            "trace_bytes": 0,
            "attempt": self.machine.failures[fault_id],
        }
        self.records[fault_id] = payload
        self.queue.append_payload(fault_id, payload)

    # -- protocol ops --------------------------------------------------
    def lease(self, worker: str, now: float) -> dict | None:
        """Grant a slice to ``worker``; ``None`` when nothing is pending."""
        if self.state != JOB_OPEN:
            return None
        self.sweep(now)
        slice_ids = self.machine.lease(str(worker), now)
        if not slice_ids:
            return None
        return {
            "job": self.fingerprint,
            "lease_ttl": self.machine.lease_ttl,
            "faults": [{"id": fault_id,
                        "attempt": self.machine.attempt_number(fault_id)}
                       for fault_id in slice_ids],
        }

    def complete(self, worker: str, fault_id: int, payload: dict,
                 now: float) -> dict:
        """Accept (or dedupe) one finished record from ``worker``."""
        if self.state == JOB_CANCELLED:
            return {"accepted": False, "duplicate": False,
                    "cancelled": True, "done": True}
        self.sweep(now)
        if fault_id in self.faults_by_id:
            # Refuse a malformed record before the lease machine counts
            # it (the machine refuses unknown ids itself).
            record_from_payload(self.faults_by_id[fault_id], payload,
                                source=f"worker {worker!r}")
        stats = self._worker(worker)
        accepted = self.machine.complete(fault_id, str(worker), now)
        if accepted:
            payload = dict(payload)
            if not payload.get("attempt"):
                payload["attempt"] = 1
            self.records[fault_id] = payload
            self.queue.append_payload(fault_id, payload)
            self.machine.observe_cost(
                fault_id, float(payload.get("elapsed_seconds") or 0.0))
            stats["completed"] += 1
            stats["busy_seconds"] += float(
                payload.get("elapsed_seconds") or 0.0)
        else:
            stats["duplicates"] += 1
        if self.machine.done and self.state == JOB_OPEN:
            self.state = JOB_DONE
            self._write_descriptor()
        return {"accepted": accepted, "duplicate": not accepted,
                "done": self.state != JOB_OPEN}

    def fail(self, worker: str, fault_id: int, message: str,
             now: float) -> dict:
        """Accept one failure report from ``worker``."""
        if self.state == JOB_CANCELLED:
            return {"outcome": "cancelled", "done": True}
        self.sweep(now)
        outcome = self.machine.fail(fault_id, str(worker), now,
                                    message=str(message or ""))
        self._worker(worker)["failed"] += 1
        if outcome == "exhausted":
            self._record_exhaustion(fault_id)
        if self.machine.done and self.state == JOB_OPEN:
            self.state = JOB_DONE
            self._write_descriptor()
        return {"outcome": outcome, "done": self.state != JOB_OPEN}

    def cancel(self) -> None:
        """Stop serving this job (leases die, results stay partial)."""
        if self.state == JOB_OPEN:
            self.state = JOB_CANCELLED
            self.machine.leases.clear()
            self._write_descriptor()

    def status(self, now: float) -> dict:
        """Status payload of this job (counts, counters, workers)."""
        self.sweep(now)
        info = {
            "job": self.fingerprint,
            "campaign": self.fault_list.name,
            "state": self.state,
            "total": len(self.faults_by_id),
            "resumed": self.resumed,
            "workers": {worker: dict(stats)
                        for worker, stats in self.workers.items()},
        }
        info.update(self.machine.counts())
        return info

    def close(self) -> None:
        """Close the queue file handle."""
        self.queue.close()


class CampaignService:
    """Daemon state + request dispatcher (transport-agnostic).

    One instance owns a spool directory of :class:`CampaignJob` s and a
    lock; :meth:`handle` maps one wire-protocol request dict to one
    response dict.  The TCP layer (:func:`serve`) is a thin shell around
    it, which keeps the whole protocol unit-testable without sockets.
    ``clock`` is injectable (monotonic seconds) so lease-expiry tests do
    not sleep.
    """

    def __init__(self, spool, lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 lease_size: int = DEFAULT_LEASE_SIZE, clock=_time.monotonic):
        self.spool = pathlib.Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.lease_size = int(lease_size)
        self.clock = clock
        self.jobs: dict[str, CampaignJob] = {}
        #: Workers that ever spoke to the daemon (chaos tests gate on it).
        self.workers_seen: set[str] = set()
        self.lock = threading.RLock()
        self.load_spool()

    # ------------------------------------------------------------------
    def load_spool(self) -> int:
        """Reload the jobs persisted in the spool directory (daemon
        restart); returns how many were restored.  In-memory lease state
        is deliberately not persisted: every lease of a dead daemon is
        void, and the queue files already hold everything completed."""
        restored = 0
        for descriptor_path in sorted(self.spool.glob("*.job.json")):
            job, state = self._load_descriptor(descriptor_path)
            if state == JOB_CANCELLED:
                job.cancel()
            if job.fingerprint in self.jobs:
                self.jobs[job.fingerprint].close()
            self.jobs[job.fingerprint] = job
            restored += 1
        return restored

    def _load_descriptor(self, path: pathlib.Path) -> tuple[CampaignJob,
                                                           object]:
        """The job a spool descriptor persists and its recorded state.

        A damaged descriptor (torn JSON, no payload object, inputs that no
        longer parse) raises :class:`~repro.errors.CampaignError` naming
        the file instead of whatever the parsing step raised."""
        try:
            descriptor = json.loads(path.read_text("utf-8"))
            if not isinstance(descriptor, dict):
                raise CampaignError("it is not a JSON object")
            payload = descriptor.get("payload")
            if not isinstance(payload, dict):
                raise CampaignError(f"its payload is "
                                    f"{type(payload).__name__}, not a JSON "
                                    "object")
            job = CampaignJob(self.spool, payload,
                              **self._lease_knobs(descriptor))
        except (ReproError, ValueError, KeyError, TypeError,
                OverflowError) as exc:
            detail = (str(exc) if isinstance(exc, ReproError)
                      else f"{type(exc).__name__}: {exc}")
            raise CampaignError(
                f"spool descriptor {path} is damaged ({detail}); repair or "
                "remove it to start the daemon") from exc
        return job, descriptor.get("state")

    def _lease_knobs(self, source: dict) -> dict:
        """``lease_ttl``, ``max_attempts`` and ``lease_size`` of a submit
        request or a spool descriptor.  Only an absent key takes the
        daemon default; a present one (null included) goes to the lease
        machine's checks as sent, never coerced."""
        return {name: source.get(name, getattr(self, name))
                for name in ("lease_ttl", "max_attempts", "lease_size")}

    def _job(self, request: dict) -> CampaignJob:
        fingerprint = str(request.get("job", ""))
        job = self.jobs.get(fingerprint)
        if job is None:
            raise CampaignError(f"unknown job {fingerprint!r} "
                                f"({len(self.jobs)} job(s) in the spool)")
        return job

    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Dispatch one protocol request; always returns a response dict
        (failures become ``{"error": ...}``, the transport never sees an
        exception)."""
        try:
            if not isinstance(request, dict):
                raise CampaignError("requests must be JSON objects")
            op = str(request.get("op", ""))
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise CampaignError(f"unknown op {op!r}")
            with self.lock:
                return handler(request)
        except CampaignError as exc:
            return {"error": str(exc)}

    # -- ops -----------------------------------------------------------
    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "jobs": len(self.jobs), "spool": str(self.spool)}

    def _op_submit(self, request: dict) -> dict:
        payload = {"netlist": request.get("netlist", ""),
                   "faults": request.get("faults", ""),
                   "settings": request.get("settings") or {}}
        try:
            job = CampaignJob(self.spool, payload,
                              **self._lease_knobs(request))
        except CampaignError:
            raise
        except Exception as exc:
            raise CampaignError(
                f"submit payload could not be parsed: {exc}") from exc
        existing = self.jobs.get(job.fingerprint)
        if existing is not None:
            # Idempotent attach: same fingerprint == same campaign; the
            # daemon keeps the job it already serves (and its lease state).
            job.close()
            job = existing
        else:
            self.jobs[job.fingerprint] = job
        status = job.status(self.clock())
        status["attached"] = existing is not None
        return status

    def _op_campaign(self, request: dict) -> dict:
        job = self._job(request)
        return {"job": job.fingerprint, **job.payload}

    def _op_lease(self, request: dict) -> dict:
        worker = str(request.get("worker") or "anonymous")
        now = self.clock()
        self.workers_seen.add(worker)
        open_jobs = 0
        for job in sorted(self.jobs.values(), key=lambda j: j.submitted):
            job.sweep(now)
            if job.state != JOB_OPEN:
                continue
            open_jobs += 1
            grant = job.lease(worker, now)
            if grant is not None:
                return grant
        return {"idle": True,
                "done": bool(self.jobs) and open_jobs == 0}

    def _op_complete(self, request: dict) -> dict:
        job = self._job(request)
        return job.complete(str(request.get("worker") or "anonymous"),
                            _fault_id(request.get("fault_id"), "complete"),
                            request.get("record"), self.clock())

    def _op_fail(self, request: dict) -> dict:
        job = self._job(request)
        return job.fail(str(request.get("worker") or "anonymous"),
                        _fault_id(request.get("fault_id"), "fail"),
                        str(request.get("message") or ""), self.clock())

    def _op_release(self, request: dict) -> dict:
        job = self._job(request)
        fault_ids = request.get("fault_ids", [])
        if not isinstance(fault_ids, list):
            raise CampaignError(
                f"release needs a list of fault_ids, got {fault_ids!r}")
        released = job.machine.release(
            [_fault_id(value, "release", "fault_ids") for value in fault_ids],
            str(request.get("worker") or "anonymous"))
        return {"released": released}

    def _op_status(self, request: dict) -> dict:
        now = self.clock()
        if request.get("job"):
            return self._job(request).status(now)
        return {"jobs": {fingerprint: job.status(now)
                         for fingerprint, job in self.jobs.items()},
                "workers_seen": sorted(self.workers_seen)}

    def _op_results(self, request: dict) -> dict:
        job = self._job(request)
        job.sweep(self.clock())
        return {"job": job.fingerprint, "state": job.state,
                "done": job.state != JOB_OPEN,
                "records": {str(fault_id): payload
                            for fault_id, payload in job.records.items()}}

    def _op_cancel(self, request: dict) -> dict:
        job = self._job(request)
        job.cancel()
        return {"job": job.fingerprint, "state": job.state}

    def close(self) -> None:
        """Close every job's queue file handle."""
        with self.lock:
            for job in self.jobs.values():
                job.close()


def _fault_id(value, op: str, name: str = "fault_id") -> int:
    """``value`` if it is an integer fault id (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignError(f"{op} needs integer {name}, got {value!r}")
    return value


class ServiceServer(socketserver.ThreadingTCPServer):
    """TCP shell around a :class:`CampaignService` (one JSON line per
    connection; see :mod:`repro.anafault.wire` for the framing)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: CampaignService):
        self.service = service
        super().__init__(address, _RequestHandler)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port 0 resolves to the real one)."""
        host, port = self.server_address[:2]
        return (str(host), int(port))


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        line = self.rfile.readline()
        if not line.strip():
            return
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            request = None
        if request is None:
            response: dict = {"error": "request is not valid JSON"}
        elif isinstance(request, dict) and request.get("op") == "shutdown":
            # Transport-level op: stop the serve_forever loop from a helper
            # thread (shutdown() called on the handler's thread deadlocks).
            # Answer FIRST — once the serve loop stops, the process begins
            # tearing down and this daemon handler thread may die before an
            # unsent reply reaches the socket.
            self._reply({"ok": True})
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
            return
        else:
            response = self.server.service.handle(request)
        self._reply(response)

    def _reply(self, response: dict) -> None:
        self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
        self.wfile.flush()


def serve(spool, host: str = "127.0.0.1", port: int = 0,
          lease_ttl: float = DEFAULT_LEASE_TTL,
          max_attempts: int = DEFAULT_MAX_ATTEMPTS,
          lease_size: int = DEFAULT_LEASE_SIZE,
          clock=_time.monotonic) -> ServiceServer:
    """Build a bound (not yet serving) :class:`ServiceServer`.

    ``port=0`` binds an ephemeral port — read the real one from
    ``server.address``.  Call ``server.serve_forever()`` (the CLI does) or
    drive it from a thread in tests; ``server.shutdown()`` +
    ``server.service.close()`` tears it down.
    """
    service = CampaignService(spool, lease_ttl=lease_ttl,
                              max_attempts=max_attempts,
                              lease_size=lease_size, clock=clock)
    return ServiceServer((host, int(port)), service)
