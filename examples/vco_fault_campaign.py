#!/usr/bin/env python3
"""The paper's main experiment: layout-realistic fault simulation of the VCO.

The script runs the complete Fig. 1 flow on the 26-transistor VCO:

1. build the schematic and the generated layout,
2. extract the circuit from the layout and LVS it against the schematic,
3. run LIFT (GLRFM) to obtain the weighted realistic fault list,
4. run AnaFAULT on the most likely faults and print the detection table and
   the fault-coverage-versus-time plot (Fig. 5 style).

A full campaign over all extracted faults takes a few minutes; pass
``--faults N`` to simulate only the N most likely faults, or ``--full`` for
everything.

Run with:  python examples/vco_fault_campaign.py --faults 20
"""

import argparse

from repro.anafault import (CampaignSettings, PoolExecutor, ToleranceSettings,
                            full_report)
from repro.cat import CATFlow, CATOptions
from repro.circuits import OUTPUT_NODE, build_vco_layout
from repro.lift import format_ranking


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", type=int, default=20,
                        help="number of most-likely faults to simulate")
    parser.add_argument("--full", action="store_true",
                        help="simulate the complete realistic fault list")
    parser.add_argument("--workers", type=int, default=2,
                        help="parallel worker processes")
    parser.add_argument("--rfm-file", default=None,
                        help="optionally write the LIFT fault list to this file")
    args = parser.parse_args()

    print("building VCO schematic and layout ...")
    circuit, layout = build_vco_layout()
    print(f"  layout: {len(layout)} shapes, {layout.area():.0f} um^2")

    options = CATOptions()
    options.campaign = CampaignSettings(
        tstop=4e-6, tstep=1e-8, use_ic=True,
        observation_nodes=(OUTPUT_NODE,),
        tolerances=ToleranceSettings(amplitude=2.0, time=0.2e-6))
    flow = CATFlow(circuit, layout, options)

    print("running extraction and LIFT ...")
    extraction = flow.extract_faults()
    sizes = extraction.fault_list_sizes()
    print(f"  LVS: {extraction.lvs.summary()}")
    print(f"  fault lists: schematic={sizes['all_faults']}  "
          f"L2RFM={sizes['l2rfm']}  GLRFM={sizes['glrfm']}  "
          f"(reduction {extraction.reduction_vs_schematic():.0%})")
    print()
    print(format_ranking(extraction.realistic_faults, limit=15))

    if args.rfm_file:
        extraction.realistic_faults.dump(args.rfm_file)
        print(f"\nLIFT fault list written to {args.rfm_file}")

    fault_limit = None if args.full else args.faults
    print(f"\nrunning AnaFAULT campaign "
          f"({'all' if fault_limit is None else fault_limit} faults, "
          f"{args.workers} workers) ...")
    executor = PoolExecutor(args.workers) if args.workers != 1 else None
    result = flow.run(fault_limit=fault_limit,
                      fault_list=extraction.realistic_faults, executor=executor)
    print()
    print(full_report(result.campaign))


if __name__ == "__main__":
    main()
