"""Regenerate ``expected/``: the committed outcomes the benchmark checks.

The runner only reads these files.  Rerun this script when a change is
*meant* to move a verdict, a detection time or a fig. 3 frequency, and
commit the new files with that change::

    PYTHONPATH=src python3 benchmarks/perf/make_expected.py

It simulates every LIFT fault: the fixed-step campaign serially and again
batched with early abort (about 45 s), the adaptive campaign (about 90 s)
and the seven fig. 3 control voltages.  The batched run must agree with
the serial one verdict for verdict; its per-fault solve counts (the
simulated prefix) are what ``fig5_batched`` deals its cost strata by.
"""

from __future__ import annotations

import json
import platform
import sys

import numpy

from workloads import (BATCH_WIDTH, EXPECTED_DIR, FIG3_VOLTAGES,
                       campaign_settings)


def _faults():
    from repro.cat import CATFlow
    from repro.circuits import build_vco_layout

    circuit, layout = build_vco_layout()
    return circuit, CATFlow(circuit, layout).extract_faults().realistic_faults


def _campaign(circuit, faults, adaptive: bool, batched: bool):
    from repro.anafault import BatchedExecutor, FaultSimulator, SerialExecutor

    executor = (BatchedExecutor(batch_width=BATCH_WIDTH, early_abort=True)
                if batched else SerialExecutor())
    return FaultSimulator(circuit, faults, campaign_settings(adaptive)).run(
        executor=executor)


def _verdicts(result) -> list[dict]:
    return [{"fault_id": record.fault.fault_id, "status": record.status,
             "detection_time": record.detection_time,
             "solves": record.newton_iterations}
            for record in result.records]


def _document(description: str, **content) -> dict:
    return {"description": description,
            "generated_with": {"python": platform.python_version(),
                               "numpy": numpy.__version__},
            **content}


def _write(name: str, document: dict) -> None:
    path = EXPECTED_DIR / f"{name}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    from repro.circuits import (OUTPUT_NODE, VCOParameters, build_vco,
                                nominal_transient_settings)
    from repro.spice import TransientAnalysis

    EXPECTED_DIR.mkdir(exist_ok=True)
    circuit, faults = _faults()

    serial = _verdicts(_campaign(circuit, faults, adaptive=False,
                                 batched=False))
    batched = _verdicts(_campaign(circuit, faults, adaptive=False,
                                  batched=True))
    for plain, lockstep in zip(serial, batched):
        if (plain["status"], plain["detection_time"]) != (
                lockstep["status"], lockstep["detection_time"]):
            print(f"batched and serial verdicts differ: {plain} vs "
                  f"{lockstep}", file=sys.stderr)
            return 1
        plain["solves_early_abort"] = lockstep["solves"]
    _write("fig5_fixed", _document(
        "Fixed-step fig. 5 campaign over every LIFT fault: verdict, "
        "detection time, Newton solves of the full serial transient and "
        "of the early-aborted batched prefix.", faults=serial))

    adaptive = _verdicts(_campaign(circuit, faults, adaptive=True,
                                   batched=False))
    _write("fig5_adaptive", _document(
        "Adaptive (variable-order BDF) fig. 5 campaign over every LIFT "
        "fault: verdict, detection time, Newton solves.", faults=adaptive))

    requests = []
    for voltage in FIG3_VOLTAGES:
        result = TransientAnalysis(
            build_vco(VCOParameters(control_voltage=voltage)),
            **nominal_transient_settings()).run()
        output = result.waveform(OUTPUT_NODE)
        requests.append({"control_voltage": voltage,
                         "frequency_hz": output.frequency(),
                         "swing_v": output.peak_to_peak(),
                         "solves": result.stats["newton_iterations"]})
    _write("fig3_nominal", _document(
        "Fault-free fig. 3 VCO transient per control voltage: output "
        "frequency, swing and Newton solves.", requests=requests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
