"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(section VI).  Expensive artefacts are shared across benchmarks through
session fixtures, and every benchmark writes the regenerated table/plot to
``benchmarks/results/`` so the reproduction can be inspected after the run.
The committed files there are full-size runs.

Smoke mode
----------
Setting ``BENCH_SMOKE=1`` in the environment shrinks the fault counts of the
campaign benchmarks so that CI can execute every ``bench_*`` file quickly.
Benchmarks read the :func:`smoke` and :func:`fault_budget` fixtures; in
smoke mode the figure-level assertions that need the full fault list are
relaxed (the run still exercises the whole pipeline and writes the results
artefacts, but to the git-ignored ``benchmarks/out/``, so a shrunk run can
never overwrite or be committed as a paper artefact).

The smoke run is also a *streaming-on* configuration: the campaign
benchmarks build their :class:`~repro.anafault.CampaignSettings` from the
:func:`campaign_engine` fixture, which in smoke mode pins observed-node
streaming **on** (regardless of the library defaults) so the streaming
engine of ``docs/campaigns.md`` is exercised end-to-end by every CI smoke
pass.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess

import pytest

from repro.cat import CATFlow
from repro.circuits import build_vco_layout

#: True when the harness runs in CI smoke mode (``BENCH_SMOKE=1``).
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Where the regenerated tables and summaries go: the committed
#: ``results/`` for full runs, the git-ignored ``out/`` for smoke runs.
RESULTS_DIR = pathlib.Path(__file__).parent / ("out" if BENCH_SMOKE
                                               else "results")

#: Faults simulated per campaign benchmark in smoke mode.
SMOKE_FAULT_BUDGET = 6


@pytest.fixture(scope="session")
def smoke() -> bool:
    """Whether the run is a CI smoke run (shrunk workloads, relaxed
    figure assertions)."""
    return BENCH_SMOKE


@pytest.fixture(scope="session")
def fault_budget() -> int | None:
    """Maximum number of faults a campaign benchmark may simulate
    (``None`` = unlimited)."""
    return SMOKE_FAULT_BUDGET if BENCH_SMOKE else None


@pytest.fixture(scope="session")
def campaign_engine() -> dict:
    """``CampaignSettings`` keyword overrides for the campaign benchmarks.

    In smoke mode observed-node streaming is forced on explicitly so the
    streaming campaign path runs in every CI smoke pass even if the library
    defaults change; the full benchmark run simply takes the library
    defaults.
    """
    if BENCH_SMOKE:
        return {"stream_traces": True}
    return {}


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Store a regenerated table/figure under :data:`RESULTS_DIR` and echo
    it to stdout."""

    def _record(name: str, text: str) -> pathlib.Path:
        path = results_dir / name
        path.write_text(text, encoding="utf-8")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _record


def _git_commit() -> str:
    """Commit the benchmark ran against (``unknown`` outside a checkout)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@pytest.fixture(scope="session")
def record_json(results_dir):
    """Store a machine-readable benchmark summary as
    ``BENCH_<name>.json`` under :data:`RESULTS_DIR`.

    The human tables of :func:`record` are for reading; these JSON
    companions are for tooling — CI uploads them as artefacts, and
    cross-commit comparisons (wall time, Newton solves, verdict counts)
    diff them without parsing the text tables.  Each payload is stamped
    with the commit and the smoke flag so a shrunk CI run is never
    mistaken for the committed full run.
    """

    def _record_json(name: str, payload: dict) -> pathlib.Path:
        path = results_dir / f"BENCH_{name}.json"
        document = {"benchmark": name, "commit": _git_commit(),
                    "smoke": BENCH_SMOKE}
        document.update(payload)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"\n===== {path.name} =====\n"
              f"{json.dumps(document, indent=2, sort_keys=True)}\n")
        return path

    return _record_json


@pytest.fixture(scope="session")
def vco_pair():
    """(schematic, layout) of the paper's VCO."""
    return build_vco_layout()


@pytest.fixture(scope="session")
def cat_extraction(vco_pair):
    """The full LIFT extraction result (Fig. 1 flow without simulation)."""
    circuit, layout = vco_pair
    return CATFlow(circuit, layout).extract_faults()
