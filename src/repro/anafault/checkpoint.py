"""Incremental campaign checkpointing (crash-safe JSONL, fingerprint-keyed).

A layout-realistic campaign runs hundreds of transients; a crash near the
end used to throw all of them away.  :class:`CampaignCheckpoint` persists
every finished :class:`~repro.anafault.simulator.FaultSimulationRecord` as
one JSON line the moment it completes, and
``FaultSimulator.run(checkpoint=...)`` skips the fault ids already on disk
when the campaign is restarted.

File format (version 1) — a header line followed by one record line per
completed fault, each a self-contained JSON object::

    {"kind": "header", "version": 1, "fingerprint": "9f0c…", "campaign": …}
    {"kind": "record", "fault_id": 17, "status": "detected", …}
    {"kind": "record", "fault_id": 23, "status": "undetected", …}

Records are appended with a flush per line, so after a hard kill at worst
the final line is torn; :meth:`CampaignCheckpoint.load` tolerates (and
reports) such a tail.  The header carries the **campaign fingerprint** — a
SHA-256 over the circuit netlist, the serialised fault list and the campaign
settings (:func:`campaign_fingerprint`) — and a checkpoint written for a
different campaign refuses to resume instead of silently mixing results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

from ..errors import CampaignError
from ..lift.faultlist import FaultList
from ..spice import Circuit
from ..spice.writer import write_netlist

#: Format version written to (and required of) the header line.
CHECKPOINT_VERSION = 1

#: Record fields persisted per fault (everything except the fault object,
#: reconstructed from the campaign's fault list on resume, and
#: ``payload_bytes``, which reports per-run IPC cost and never round-trips).
RECORD_FIELDS = ("status", "detection_time", "detected_on", "max_deviation",
                 "persistent_deviation", "elapsed_seconds", "message",
                 "newton_iterations", "steps_accepted", "steps_rejected",
                 "trace_bytes", "attempt", "order_histogram")

#: Identity kinds of a settings field (see :data:`IDENTITY_FIELDS`):
#: rendered as ``name=value`` always, only while it differs from its
#: default, or never (verdict-neutral: it changes what a run costs, never
#: a verdict; a retired neutral key is dropped from the wire at any value).
ALWAYS, UNLESS_DEFAULT, NEUTRAL = "always", "unless-default", "neutral"


@dataclasses.dataclass(frozen=True)
class Retired:
    """A deleted field, rendered and read from the wire at ``value``."""

    value: object


def _always(names: str) -> dict:
    return dict.fromkeys(names.split(), ALWAYS)


#: How each settings field enters the campaign identity, per settings
#: class and in rendering order: the one table behind both
#: :func:`campaign_fingerprint` and
#: :func:`~repro.anafault.wire.settings_from_wire`.  A field added from
#: now on gets an ``UNLESS_DEFAULT`` row after its class's last row, and
#: a default that reproduces the old behaviour, so no existing
#: fingerprint moves.  A field is retired by deleting it and turning its
#: row into ``Retired(<the value it always had>)`` (or ``NEUTRAL``),
#: never by deleting the row: the old text keeps it.
IDENTITY_FIELDS = {
    "CampaignSettings": _always(
        "tstop tstep use_ic observation_nodes initial_conditions tolerances"
        " fault_model simulator_options count_failed_as_detected"
        " solver_backend") | {
            "timestep": UNLESS_DEFAULT, "stream_traces": NEUTRAL,
            "preflight": UNLESS_DEFAULT, "use_shared_memory": NEUTRAL,
            "tail_downsample": NEUTRAL},
    "ToleranceSettings": _always("amplitude time"),
    "FaultModelOptions": _always("model short_resistance open_resistance"),
    "SimulationOptions": _always(
        "reltol vntol abstol gmin itl1 itl4 temperature integration"
        " max_voltage_step gmin_steps source_steps min_step_fraction"),
    "TransientOptions": _always(
        "mode lte_reltol lte_abstol dt_min dt_max dt_initial") | {
            "dt_grow": Retired(2.0), "dt_shrink": Retired(0.1),
            "safety": Retired(0.9), "interpolate_prints": Retired(True),
            "predictor_guess": Retired(True), "quantize_steps": Retired(True),
            "solver_cache_size": Retired(16)} | _always("max_order min_order"),
}


def _render(value, nested: bool = True) -> str:
    """``repr(value)``, except for a settings dataclass the table knows:
    its fields as :data:`IDENTITY_FIELDS` renders them, wrapped in
    ``Name(...)`` when ``nested`` (the old dataclass ``repr``)."""
    rows = IDENTITY_FIELDS.get(type(value).__name__)
    if rows is None or not dataclasses.is_dataclass(value):
        return repr(value)
    unlisted = [field.name for field in dataclasses.fields(value)
                if field.name not in rows]
    if unlisted:
        raise CampaignError(f"{type(value).__name__} field(s) {unlisted} have "
                            "no row in IDENTITY_FIELDS")
    default, parts = type(value)(), []
    for name, kind in rows.items():
        if isinstance(kind, Retired):
            parts.append(f"{name}={kind.value!r}")
        elif kind == ALWAYS or (kind == UNLESS_DEFAULT and getattr(
                value, name) != getattr(default, name)):
            parts.append(f"{name}={_render(getattr(value, name))}")
    text = ", ".join(parts)
    return f"{type(value).__name__}({text})" if nested else text


def _settings_text(settings) -> str:
    """Deterministic settings text the fingerprint hashes."""
    return _render(settings, nested=False)


def campaign_fingerprint(circuit: Circuit, fault_list: FaultList,
                         settings) -> str:
    """Identity of one campaign: circuit + fault list + settings hash.

    The circuit contributes through its serialised netlist, the fault list
    through its LIFT interchange text and the settings field by field —
    any change to what would be simulated (different netlist, reordered or
    re-weighted faults, other tolerances or transient length) yields a
    different fingerprint, and a checkpoint keyed on the old one refuses
    to resume.  :data:`IDENTITY_FIELDS` decides how each settings field
    enters: verdict-neutral engine switches are left out (a checkpoint
    survives toggling them), and fields added or retired since the first
    checkpoints keep every existing fingerprint byte for byte.
    """
    digest = hashlib.sha256()
    for part in (write_netlist(circuit), fault_list.dumps(),
                 _settings_text(settings)):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:32]


def _iter_entries(handle, path, on_skip=None):
    """Yield the decodable JSON entries of checkpoint file ``path``,
    skipping blank and torn lines (``on_skip()`` is called once per
    skipped line).

    The one line-scan both :meth:`CampaignCheckpoint.load` and
    :func:`read_header` go through, so their tolerance for crash debris
    cannot drift apart.  A line that decodes to something other than a
    JSON object is not crash debris (a torn line never decodes) and
    raises :class:`~repro.errors.CampaignError`.
    """
    for line in handle:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            # A torn tail from a hard kill; count it and move on.
            if on_skip is not None:
                on_skip()
            continue
        if not isinstance(entry, dict):
            raise CampaignError(
                f"checkpoint {path} has a line that is not a JSON object: "
                f"{line[:80]!r}")
        yield entry


def _int_field(path, entry: dict, name: str, default=None) -> int:
    """Integer field ``name`` of a checkpoint entry (``default`` when
    absent); anything else raises :class:`~repro.errors.CampaignError`
    naming the file."""
    value = entry.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignError(
            f"checkpoint {path} has a {entry.get('kind', '?')} line whose "
            f"{name} is {value!r}, not an integer")
    return value


def header_slice(path, header: dict) -> tuple[int, int]:
    """The ``(shard_index, shard_count)`` a checkpoint header of ``path``
    declares; ``(0, 1)`` for a plain, unsharded campaign checkpoint."""
    return (_int_field(path, header, "shard_index", 0),
            _int_field(path, header, "shard_count", 1))


def read_header(path) -> dict | None:
    """First readable header entry of a checkpoint/shard file, or ``None``.

    A cheap identity probe for tooling (the ``merge`` CLI uses it to
    report each shard's ``shard_index``/``shard_count`` and fingerprint
    without loading the records); torn or non-JSON lines are skipped the
    same way :meth:`CampaignCheckpoint.load` skips them.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        for entry in _iter_entries(handle, path):
            if entry.get("kind") == "header":
                return entry
    return None


class CampaignCheckpoint:
    """Append-only JSONL store of finished fault simulation records.

    Usage by the campaign manager (``FaultSimulator.run``)::

        checkpoint = CampaignCheckpoint(path)
        completed = checkpoint.load(fingerprint)   # fault_id -> payload dict
        checkpoint.start(fingerprint, campaign=fault_list.name)
        checkpoint.append(record)                  # after each fault
        checkpoint.close()

    :meth:`load` returns the per-fault payloads of a compatible checkpoint
    (empty when the file does not exist yet) and raises
    :class:`~repro.errors.CampaignError` when the file belongs to a
    different campaign; :meth:`start` writes the header if the file is new.
    """

    @classmethod
    def coerce(cls, checkpoint) -> "CampaignCheckpoint":
        """``checkpoint`` as a store: paths are wrapped, stores pass
        through — the one rule every campaign entry point shares."""
        if isinstance(checkpoint, cls):
            return checkpoint
        return cls(checkpoint)

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._handle = None
        #: Lines that could not be decoded on the last :meth:`load` (a torn
        #: tail after a hard kill shows up here, never as an exception).
        self.skipped_lines = 0
        # Set by load(): the file exists but no valid header survived (e.g.
        # the header line itself was torn); start() must rewrite it or every
        # future resume would fail the records-but-no-header check.
        self._needs_header = False

    # ------------------------------------------------------------------
    def load(self, fingerprint: str,
             timestep_mode: str | None = None) -> dict[int, dict]:
        """Payloads of the completed faults, keyed by fault id.

        Returns ``{}`` for a missing or empty file.  Raises
        :class:`~repro.errors.CampaignError` when the header belongs to a
        different campaign (fingerprint mismatch) or an incompatible format
        version — resuming would silently mix unrelated results.

        ``timestep_mode`` is the resuming campaign's integration policy
        (``"fixed"``/``"adaptive"``); when a fingerprint mismatch
        coincides with a different recorded mode, the error says so
        explicitly — switching the timestep policy mid-campaign is the
        common way to hit the mismatch, and the generic fingerprint
        message gives no hint which setting diverged.
        """
        self.skipped_lines = 0
        self._needs_header = False
        if not self.path.exists():
            return {}
        completed: dict[int, dict] = {}
        header_seen = False

        def count_skip() -> None:
            self.skipped_lines += 1

        with open(self.path, "r", encoding="utf-8") as handle:
            for entry in _iter_entries(handle, self.path, on_skip=count_skip):
                kind = entry.get("kind")
                if kind == "header":
                    if entry.get("version") != CHECKPOINT_VERSION:
                        raise CampaignError(
                            f"checkpoint {self.path} has format version "
                            f"{entry.get('version')!r}; this build reads "
                            f"version {CHECKPOINT_VERSION}")
                    if entry.get("fingerprint") != fingerprint:
                        recorded_mode = entry.get("timestep_mode")
                        if (timestep_mode is not None
                                and recorded_mode is not None
                                and recorded_mode != timestep_mode):
                            raise CampaignError(
                                f"checkpoint {self.path} was written by a "
                                f"timestep={recorded_mode!r} campaign but "
                                f"this run uses "
                                f"timestep={timestep_mode!r}; the "
                                "integration grid is part of the campaign "
                                "identity, so its records cannot be reused "
                                "— resume with the original timestep "
                                "settings, or delete the file to rerun "
                                "under the new ones")
                        raise CampaignError(
                            f"checkpoint {self.path} belongs to a different "
                            f"campaign (fingerprint "
                            f"{entry.get('fingerprint')!r}, expected "
                            f"{fingerprint!r}); refusing to resume — delete "
                            "the file to start over")
                    header_seen = True
                elif kind == "record":
                    completed[_int_field(self.path, entry, "fault_id")] = entry
        if completed and not header_seen:
            raise CampaignError(
                f"checkpoint {self.path} has records but no readable "
                "header; refusing to resume")
        self._needs_header = not header_seen
        return completed

    # ------------------------------------------------------------------
    def start(self, fingerprint: str, campaign: str = "",
              extra: dict | None = None) -> None:
        """Open for appending, writing the header line if the file is new.

        ``extra`` merges additional identity fields into the header —
        shard runs record their ``shard_index``/``shard_count`` here so
        tooling can tell shard files apart (:meth:`load` ignores fields it
        does not know).
        """
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        torn_tail = False
        if not fresh:
            with open(self.path, "rb") as peek:
                peek.seek(-1, 2)
                torn_tail = peek.read(1) != b"\n"
        self._handle = open(self.path, "a", encoding="utf-8")
        if torn_tail:
            # A crash mid-write left no trailing newline; terminate the torn
            # line so the next append does not merge into it (the fragment
            # is skipped, not mis-parsed, on the next load).
            self._handle.write("\n")
            self._handle.flush()
        if fresh or self._needs_header:
            # `_needs_header`: the file exists but its header line was torn
            # by a crash; append a fresh one (load() accepts the header on
            # any line) so the next resume is not refused.
            header = {"kind": "header", "version": CHECKPOINT_VERSION,
                      "fingerprint": fingerprint, "campaign": campaign}
            header.update(extra or {})
            self._write(header)
            self._needs_header = False

    def append(self, record) -> None:
        """Persist one finished record (one flushed JSON line)."""
        if self._handle is None:
            raise CampaignError(
                "checkpoint is not open for appending; call start() first")
        self.append_payload(record.fault.fault_id,
                            {name: getattr(record, name, None)
                             for name in RECORD_FIELDS})

    def append_payload(self, fault_id: int, payload: dict) -> None:
        """Persist one finished record given as its wire/checkpoint payload
        dict (what the campaign service receives from a worker — the
        record object itself never crosses the socket)."""
        if self._handle is None:
            raise CampaignError(
                "checkpoint is not open for appending; call start() first")
        entry = {"kind": "record", "fault_id": int(fault_id)}
        for name in RECORD_FIELDS:
            entry[name] = payload.get(name)
        self._write(entry)

    def _write(self, entry: dict) -> None:
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the append handle (load/start may be called again later)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
