"""Client side of the campaign service: workers and the remote executor.

Three layers, each a thin shell over the one below:

* :class:`ServiceClient` — one method per protocol op (``submit``,
  ``lease``, ``complete``, …), each a single
  :func:`repro.anafault.wire.request` round trip.  Everything that talks
  to a daemon goes through it, including the CLI subcommands.
* :class:`WorkerClient` — the worker loop behind ``python -m
  repro.anafault work``: poll for a lease, simulate the leased faults with
  the ordinary in-process :class:`~repro.anafault.FaultSimulator`, report
  each record back, repeat.  Campaign inputs are fetched once per
  fingerprint and cached (netlist, fault list, settings, nominal run), so
  a worker chews through many leases of one campaign at full speed.  A
  worker that dies mid-lease needs no cleanup — the daemon's lease TTL
  re-queues its faults — and a worker that fails *gracefully* reports the
  failure and releases the rest of its slice before exiting.
* :class:`RemoteExecutor` — the :class:`~repro.anafault.CampaignExecutor`
  that turns ``FaultSimulator.run(executor=RemoteExecutor(addr))`` into a
  served campaign: it submits the campaign (asserting the daemon derives
  the **same fingerprint** from the wire payload — wire drift fails
  loudly), polls status until every fault is terminal, then emits the
  daemon's records through the ordinary ``emit`` guard.  The scheduler
  counters and per-worker throughput land on ``CampaignResult.service``.

The chaos hooks on :class:`WorkerClient` (``chaos=...``, and the
``--chaos-hang-after`` / ``--chaos-crash-after`` CLI flags) exist for the
fault-injection test harness: they make a worker hang while holding a
lease (exercising lease expiry + re-lease) or crash after reporting a
failure (exercising the bounded-retry path).  See ``docs/service.md``.
"""

from __future__ import annotations

import os
import socket
import time as _time

from ..errors import CampaignError
from ..lift.faultlist import FaultList
from ..spice.parser import parse_netlist
from ..spice.writer import write_netlist
from .checkpoint import campaign_fingerprint
from .executors import ExecutionInfo, record_from_payload
from .wire import (parse_address, record_to_wire, request,
                   settings_from_wire, settings_to_wire)


def _coerce_address(address) -> tuple[str, int]:
    if isinstance(address, str):
        return parse_address(address)
    host, port = address
    return (str(host), int(port))


class ServiceClient:
    """One protocol method per campaign-service op.

    ``address`` is a ``(host, port)`` tuple or a ``"host:port"`` string.
    Every method is one connection + one JSON line each way
    (:func:`repro.anafault.wire.request`); daemon-side failures surface as
    :class:`~repro.errors.CampaignError`.
    """

    def __init__(self, address, timeout: float = 30.0):
        self.address = _coerce_address(address)
        self.timeout = float(timeout)

    def _call(self, op: str, **fields) -> dict:
        return request(self.address, {"op": op, **fields},
                       timeout=self.timeout)

    def ping(self) -> dict:
        """Liveness probe; returns the daemon's job count and spool path."""
        return self._call("ping")

    def submit(self, netlist: str, faults: str, settings: dict,
               **options) -> dict:
        """Submit (or idempotently re-attach to) a campaign.

        ``netlist``/``faults`` are the interchange texts, ``settings`` the
        :func:`~repro.anafault.wire.settings_to_wire` dict; ``options``
        may override ``lease_ttl``/``max_attempts``/``lease_size``.
        Returns the job's status payload (``job`` is the fingerprint).
        """
        return self._call("submit", netlist=netlist, faults=faults,
                          settings=settings, **options)

    def campaign(self, job: str) -> dict:
        """Fetch a job's campaign inputs (netlist/faults/settings texts)."""
        return self._call("campaign", job=job)

    def lease(self, worker: str) -> dict:
        """Ask for a slice of work; an idle response carries ``done``."""
        return self._call("lease", worker=worker)

    def complete(self, job: str, worker: str, fault_id: int,
                 record: dict) -> dict:
        """Report one finished record (its checkpoint payload dict)."""
        return self._call("complete", job=job, worker=worker,
                          fault_id=int(fault_id), record=record)

    def fail(self, job: str, worker: str, fault_id: int,
             message: str = "") -> dict:
        """Report one failed attempt (consumes one of the fault's
        bounded retries)."""
        return self._call("fail", job=job, worker=worker,
                          fault_id=int(fault_id), message=message)

    def release(self, job: str, worker: str, fault_ids) -> dict:
        """Gracefully return un-simulated leased faults to the queue."""
        return self._call("release", job=job, worker=worker,
                          fault_ids=[int(fault_id)
                                     for fault_id in fault_ids])

    def status(self, job: str | None = None) -> dict:
        """Daemon status (all jobs) or one job's status payload."""
        if job is None:
            return self._call("status")
        return self._call("status", job=job)

    def results(self, job: str) -> dict:
        """A job's accepted records, keyed by fault id (as strings —
        JSON object keys — convert back with ``int``)."""
        return self._call("results", job=job)

    def cancel(self, job: str) -> dict:
        """Cancel a job: live leases die, partial results stay on disk."""
        return self._call("cancel", job=job)

    def shutdown(self) -> dict:
        """Ask the daemon to stop serving (used by tests and the CI job)."""
        return self._call("shutdown")


class WorkerClient:
    """The pull-based worker loop of the campaign service.

    Polls the daemon for leases, simulates each leased fault with a cached
    in-process :class:`~repro.anafault.FaultSimulator` (one nominal run
    per campaign fingerprint), stamps the lease's attempt number onto the
    record and reports it back.  Failure semantics:

    * an *unexpected exception* while simulating a fault is reported as a
      ``fail`` (consuming one bounded retry), the rest of the slice is
      released back to the queue, and the exception propagates — a broken
      worker exits instead of corrupting further faults;
    * a worker that is SIGKILLed reports nothing: its lease expires and
      the daemon re-queues the slice (chaos test
      ``tests/test_service_chaos.py`` exercises exactly this).

    ``chaos`` is a test hook called as ``chaos(fault, completed)`` before
    each simulation; :func:`chaos_hang_after` / :func:`chaos_crash_after`
    build the two hooks the CLI flags expose.
    """

    def __init__(self, address, worker_id: str | None = None,
                 poll: float = 0.25, timeout: float = 30.0, chaos=None):
        self.client = ServiceClient(address, timeout=timeout)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll = float(poll)
        self.chaos = chaos
        #: Faults this worker completed / failed across its lifetime.
        self.completed = 0
        self.failed = 0
        self._campaigns: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def _campaign_context(self, job: str) -> tuple:
        """(simulator, nominal, faults-by-id) of ``job``, fetched and
        cached on first use."""
        context = self._campaigns.get(job)
        if context is not None:
            return context
        from .simulator import FaultSimulator

        payload = self.client.campaign(job)
        circuit = parse_netlist(payload["netlist"]).circuit
        fault_list = FaultList.loads(payload["faults"])
        settings = settings_from_wire(payload["settings"])
        simulator = FaultSimulator(circuit, fault_list, settings)
        nominal = simulator.run_nominal()
        by_id = {fault.fault_id: fault for fault in fault_list}
        context = (simulator, nominal, by_id)
        self._campaigns[job] = context
        return context

    def run_slice(self, grant: dict) -> None:
        """Simulate and report one lease grant (the worker loop's body).

        On an unexpected simulation/chaos exception the current fault is
        reported failed, the untouched remainder of the slice is released,
        and the exception re-raises.
        """
        job = str(grant["job"])
        entries = list(grant.get("faults") or [])
        simulator, nominal, by_id = self._campaign_context(job)
        for position, entry in enumerate(entries):
            fault_id = int(entry["id"])
            fault = by_id.get(fault_id)
            try:
                if fault is None:
                    raise CampaignError(
                        f"daemon leased fault id {fault_id}, which is not "
                        "in the campaign fault list it served")
                if self.chaos is not None:
                    self.chaos(fault, self.completed)
                record = simulator.simulate_fault(fault, nominal)
                record.attempt = int(entry.get("attempt") or 1)
            except Exception as exc:
                self.failed += 1
                remainder = [int(e["id"]) for e in entries[position + 1:]]
                try:
                    self.client.fail(job, self.worker_id, fault_id,
                                     message=f"{type(exc).__name__}: {exc}")
                    if remainder:
                        self.client.release(job, self.worker_id, remainder)
                except CampaignError:
                    # Best-effort reporting: an unreachable daemon will
                    # expire the lease anyway; the original error matters.
                    pass
                raise
            self.client.complete(job, self.worker_id, fault_id,
                                 record_to_wire(record))
            self.completed += 1

    def run(self, exit_when_done: bool = False,
            max_faults: int | None = None) -> int:
        """The worker loop: lease, simulate, report, repeat.

        Returns the number of faults completed.  ``exit_when_done`` makes
        the loop return once the daemon reports every known job terminal
        (the CI/chaos harness uses it); otherwise an idle worker keeps
        polling every ``poll`` seconds for new campaigns.  ``max_faults``
        bounds the worker's lifetime work (tests).
        """
        while True:
            grant = self.client.lease(self.worker_id)
            if grant.get("idle"):
                if exit_when_done and grant.get("done"):
                    return self.completed
                _time.sleep(self.poll)
                continue
            self.run_slice(grant)
            if max_faults is not None and self.completed >= max_faults:
                return self.completed


def chaos_hang_after(count: int, hang_seconds: float = 3600.0,
                     marker: str = ""):
    """Chaos hook: after ``count`` completed faults, print ``marker`` (so
    a harness knows the worker holds a lease) and hang — simulating a
    wedged worker whose lease must expire.  Used by ``work
    --chaos-hang-after``."""
    def hook(fault, completed: int) -> None:
        if completed >= count:
            if marker:
                print(marker, flush=True)
            _time.sleep(hang_seconds)
    return hook


def chaos_crash_after(count: int):
    """Chaos hook: after ``count`` completed faults, raise — the worker
    reports a ``fail`` for the in-flight fault (consuming one bounded
    retry) and exits.  Used by ``work --chaos-crash-after``."""
    def hook(fault, completed: int) -> None:
        if completed >= count:
            raise CampaignError(
                f"chaos: injected worker crash after {count} fault(s)")
    return hook


class RemoteExecutor:
    """Drive a campaign through a scheduler daemon, behind the ordinary
    executor seam: ``FaultSimulator.run(executor=RemoteExecutor(addr))``.

    Submits the campaign over the wire, **asserts the daemon derived the
    same campaign fingerprint** from the wire payload (serialisation drift
    between client and daemon fails loudly instead of silently simulating
    something else), polls the job until every fault is terminal, then
    emits the daemon's records through the standard emit guard — so the
    result is checkpointable, mergeable and telemetry-complete exactly
    like a local run.  Scheduler counters and the per-worker throughput
    table arrive on ``CampaignResult.service``.

    The executor does not spawn workers; start them separately (``python
    -m repro.anafault work --addr HOST:PORT``).  ``wait_timeout`` bounds
    the poll loop (:class:`~repro.errors.CampaignError` on expiry) so a
    daemon with no workers cannot hang a caller forever.
    """

    #: Reported in the campaign telemetry (``telemetry()["executor"]``).
    name = "remote"

    def __init__(self, address, poll: float = 0.25,
                 wait_timeout: float | None = 600.0, timeout: float = 30.0,
                 lease_ttl: float | None = None,
                 max_attempts: int | None = None,
                 lease_size: int | None = None):
        self.client = ServiceClient(address, timeout=timeout)
        self.poll = float(poll)
        self.wait_timeout = wait_timeout
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.lease_size = lease_size

    def execute(self, simulator, plan, nominal, emit) -> ExecutionInfo:
        """Run ``plan``'s pending faults through the daemon (the
        :class:`~repro.anafault.CampaignExecutor` contract)."""
        settings_wire = settings_to_wire(simulator.settings)
        fingerprint = campaign_fingerprint(simulator.circuit,
                                           simulator.fault_list,
                                           simulator.settings)
        options = {}
        if self.lease_ttl is not None:
            options["lease_ttl"] = float(self.lease_ttl)
        if self.max_attempts is not None:
            options["max_attempts"] = int(self.max_attempts)
        if self.lease_size is not None:
            options["lease_size"] = int(self.lease_size)
        submitted = self.client.submit(write_netlist(simulator.circuit),
                                       simulator.fault_list.dumps(),
                                       settings_wire, **options)
        job = str(submitted.get("job", ""))
        if job != fingerprint:
            raise CampaignError(
                f"the daemon derived campaign fingerprint {job!r} from the "
                f"submitted wire payload, but this client computed "
                f"{fingerprint!r}; client and daemon disagree about the "
                "campaign identity (version drift?) — refusing to mix "
                "results")

        deadline = (None if self.wait_timeout is None
                    else _time.monotonic() + float(self.wait_timeout))
        while True:
            status = self.client.status(job)
            if status.get("state") == "cancelled":
                raise CampaignError(
                    f"campaign {job} was cancelled on the daemon "
                    f"({status.get('completed', 0)} of "
                    f"{status.get('total', 0)} faults completed)")
            if status.get("state") == "done":
                break
            if deadline is not None and _time.monotonic() > deadline:
                raise CampaignError(
                    f"campaign {job} did not finish within "
                    f"{self.wait_timeout}s ({status.get('completed', 0)} of "
                    f"{status.get('total', 0)} faults completed, "
                    f"{len(status.get('workers', {}))} worker(s) seen); are "
                    "any workers running?")
            _time.sleep(self.poll)

        results = self.client.results(job)
        records = {int(fault_id): payload
                   for fault_id, payload in results["records"].items()}
        for index in plan.pending:
            fault = plan.faults[index]
            payload = records.get(fault.fault_id)
            if payload is None:
                raise CampaignError(
                    f"daemon reported campaign {job} done but returned no "
                    f"record for fault id {fault.fault_id}")
            # reloaded=False: these records are THIS campaign's fresh
            # kernel work (failed attempts emit no record, so totals stay
            # single-counted); only checkpoint reloads are prior work.
            emit(index, record_from_payload(
                fault, payload, reloaded=False,
                source=f"campaign service job {job}"))

        workers = status.get("workers", {})
        service = {key: status.get(key)
                   for key in ("leases_granted", "leases_expired",
                               "duplicates", "failure_reports", "retries",
                               "attempts_consumed", "exhausted", "resumed")}
        service["workers"] = workers
        return ExecutionInfo(executor=self.name,
                             workers=max(len(workers), 1),
                             service=service)
