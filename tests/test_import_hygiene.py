"""The library loads only what a run uses.

The declared dependency is numpy alone: scipy is optional (the LU and
sparse solver paths import it on first use) and no graph library is
needed at all.  Each check runs in a fresh interpreter, since the pytest
process itself may already have imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPTIONAL = ("scipy", "networkx")


def _loaded_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}}"
             f" & {set(OPTIONAL)!r})))")
    process = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


def test_importing_the_packages_loads_no_optional_library():
    assert _loaded_after(
        "import repro.anafault, repro.cat, repro.circuits, repro.lift, "
        "repro.lint") == []


def test_fault_extraction_and_a_vco_transient_load_no_optional_library():
    assert _loaded_after(
        "from repro.cat import CATFlow\n"
        "from repro.circuits import build_vco_layout\n"
        "from repro.spice import TransientAnalysis\n"
        "circuit, layout = build_vco_layout()\n"
        "assert len(CATFlow(circuit, layout).extract_faults()"
        ".realistic_faults) > 0\n"
        "TransientAnalysis(circuit, tstop=2e-7, tstep=1e-8,"
        " use_ic=True).run()") == []
