"""Campaign identity pinned across the settings-field table.

Resuming, sharding and serving a campaign all key on
:func:`~repro.anafault.campaign_fingerprint`, so no change to the settings
dataclasses may move it.  ``tests/data/identity_goldens.json`` holds the
settings text and the fingerprint of a matrix of settings (the default
fixed campaign, the benchmark's and the CLI's adaptive settings, each
non-default knob the fingerprint has to see, and the verdict-neutral
``stream_traces``), written by the code from before the seven retired
``TransientOptions`` knobs were deleted.  Regenerate it only for a change
that is meant to move campaign identity::

    PYTHONPATH=src python tests/test_campaign_identity.py --write

The other files under ``tests/data`` that these tests read were written
by that same earlier code and are never regenerated:

* ``rc_adaptive_checkpoint.jsonl`` — the ``test_streaming`` rc campaign
  under ``TransientOptions(mode="adaptive")``;
* ``rc_adaptive_spool/`` — a service spool (descriptor and queue file) of
  the ``test_service`` rc campaign under the same timestep, with two
  faults completed; its descriptor is a settings wire dict carrying every
  timestep key of that code;
* ``rc_adaptive_shard0.jsonl`` — shard 0 of 2 of the CLI campaign over
  ``examples/netlists/rc_lowpass.cir`` and ``rc_faults.lift``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pathlib
import shutil
import sys

import pytest

from repro.anafault import (CampaignSettings, FaultSimulator,
                            campaign_fingerprint)
from repro.anafault.checkpoint import _settings_text
from repro.anafault.cli import _load_campaign, build_parser
from repro.circuits.library import build_rc_lowpass
from repro.spice import TransientOptions

from test_streaming import LEGACY_CHECKPOINT, _fault_list, _settings

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDENS = DATA / "identity_goldens.json"
ADAPTIVE_CHECKPOINT = DATA / "rc_adaptive_checkpoint.jsonl"
ADAPTIVE_SPOOL = DATA / "rc_adaptive_spool"
ADAPTIVE_SHARD0 = DATA / "rc_adaptive_shard0.jsonl"
RC_FAULTS = DATA / "rc_faults.lift"
RC_NETLIST = ROOT / "examples" / "netlists" / "rc_lowpass.cir"

#: The LTE settings of the adaptive fig. 3 / fig. 5 benchmarks.
BENCHMARK_ADAPTIVE = dict(mode="adaptive", lte_reltol=3e-3, lte_abstol=1e-4,
                          dt_max=8e-8)

#: The CLI campaign of the shard test: rc low-pass, adaptive, 2 shards.
RC_CLI = [str(RC_NETLIST), str(RC_FAULTS), "--tstop", "5u", "--tstep",
          "50n", "--observe", "out", "--amplitude-tolerance", "0.3",
          "--time-tolerance", "200n", "--timestep", "adaptive"]


def _cli_campaign():
    """``run --timestep adaptive --lte-reltol`` on the paper's VCO."""
    args = build_parser().parse_args([
        "run", str(ROOT / "examples" / "netlists" / "vco.cir"),
        str(ROOT / "examples" / "netlists" / "vco.lift"),
        "--tstop", "4u", "--tstep", "10n", "--timestep", "adaptive",
        "--lte-reltol", "2e-3"])
    simulator = _load_campaign(args)
    return simulator.circuit, simulator.fault_list, simulator.settings


def _campaign(**overrides):
    """The rc campaign of ``test_streaming`` under ``CampaignSettings``
    defaults plus ``overrides``."""
    return (build_rc_lowpass(capacitance=1e-6), _fault_list(),
            CampaignSettings(**overrides))


CASES = {
    "fixed-default": _campaign,
    "adaptive-benchmark": lambda: _campaign(
        timestep=TransientOptions(**BENCHMARK_ADAPTIVE)),
    "adaptive-cli-lte-reltol": _cli_campaign,
    "adaptive-default": lambda: _campaign(
        timestep=TransientOptions(mode="adaptive")),
    "fixed-dt-min": lambda: _campaign(timestep=TransientOptions(dt_min=1e-10)),
    "preflight-error": lambda: _campaign(preflight="error"),
    "preflight-off": lambda: _campaign(preflight="off"),
    "stream-traces-off": lambda: _campaign(stream_traces=False),
    "solver-dense": lambda: _campaign(solver_backend="dense"),
}


def identity(case: str) -> dict:
    circuit, faults, settings = CASES[case]()
    return {"settings_text": _settings_text(settings),
            "fingerprint": campaign_fingerprint(circuit, faults, settings)}


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_identity_is_the_committed_text_and_fingerprint(case, goldens):
    assert identity(case) == goldens[case]


def test_the_goldens_cover_the_matrix(goldens):
    assert sorted(goldens) == sorted(CASES)
    assert (goldens["stream-traces-off"]
            == goldens["fixed-default"])
    assert len({entry["fingerprint"] for entry in goldens.values()}) == \
        len(CASES) - 1


def test_every_settings_field_has_one_identity_row():
    """The table names each live field of every settings class once, and
    nothing else but retired fields."""
    from repro.anafault.checkpoint import IDENTITY_FIELDS, Retired, NEUTRAL

    settings = CampaignSettings()
    classes = {type(settings)} | {
        type(getattr(settings, field.name))
        for field in dataclasses.fields(settings)
        if dataclasses.is_dataclass(getattr(settings, field.name))}
    assert sorted(cls.__name__ for cls in classes) == sorted(IDENTITY_FIELDS)
    for cls in classes:
        rows = IDENTITY_FIELDS[cls.__name__]
        live = [field.name for field in dataclasses.fields(cls)]
        assert [name for name in rows if name in live] == live
        for name in set(rows) - set(live):
            assert isinstance(rows[name], Retired) or rows[name] is NEUTRAL


def test_transient_options_keep_eight_fields():
    assert [field.name for field in dataclasses.fields(TransientOptions)] == [
        "mode", "lte_reltol", "lte_abstol", "dt_min", "dt_max", "dt_initial",
        "max_order", "min_order"]


@pytest.mark.parametrize("path, timestep", [
    (LEGACY_CHECKPOINT, TransientOptions()),
    (ADAPTIVE_CHECKPOINT, TransientOptions(mode="adaptive"))],
    ids=["fixed", "adaptive"])
def test_earlier_checkpoints_resume_with_every_fault_skipped(
        rc_circuit, tmp_path, path, timestep):
    copy = tmp_path / path.name
    shutil.copy(path, copy)
    digest = _sha256(copy)
    resumed = FaultSimulator(rc_circuit, _fault_list(),
                             _settings(timestep=timestep)).run(
                                 checkpoint=copy)
    assert resumed.checkpoint_skipped == len(_fault_list())
    assert _sha256(copy) == digest == _sha256(path)


def test_merge_verify_takes_an_earlier_shard_beside_a_new_one(tmp_path):
    """``merge --verify`` accepts shard 0 written before the knobs went
    next to a shard 1 and a reference run written now."""
    from repro.anafault.cli import main

    shard0, shard1 = tmp_path / "shard0.jsonl", tmp_path / "shard1.jsonl"
    reference = tmp_path / "reference.jsonl"
    shutil.copy(ADAPTIVE_SHARD0, shard0)
    out = io.StringIO()
    assert main(["shard", *RC_CLI, "--shard-index", "1", "--shard-count",
                 "2", "--out", str(shard1)], out=out) == 0
    assert main(["run", *RC_CLI, "--checkpoint", str(reference)],
                out=out) == 0
    assert main(["merge", *RC_CLI, str(shard0), str(shard1),
                 "--require-complete", "--verify", str(reference)],
                out=out) == 0, out.getvalue()
    assert "verify: all 4 merged record(s) match" in out.getvalue()
    assert shard0.read_bytes() == ADAPTIVE_SHARD0.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_campaign_identity.py --write")
    GOLDENS.write_text(json.dumps({case: identity(case) for case in CASES},
                                  indent=1, sort_keys=True) + "\n")
