#!/usr/bin/env python3
"""LIFT in isolation: from layout geometry to a weighted realistic fault list.

The script demonstrates the layout side of the tool chain on a small CMOS
inverter so every intermediate result fits on the screen:

1. generate a layout for the circuit,
2. extract connectivity and devices back out of the geometry,
3. LVS the extracted netlist against the schematic,
4. evaluate defect statistics / critical areas (GLRFM) and print the ranked
   fault list,
5. cross-check the analytic bridge extraction against Monte-Carlo spot
   defects (inductive fault analysis).

Run with:  python examples/layout_fault_extraction.py
"""

from repro.circuits import build_cmos_inverter
from repro.defects import DefectSizeDistribution, DefectStatistics, SpotDefectSampler
from repro.extract import compare, extract_netlist
from repro.layout import generate_layout
from repro.layout import textio
from repro.lift import FaultExtractor, format_ranking


def main() -> None:
    circuit = build_cmos_inverter()
    print(f"schematic: {circuit.title} with {len(circuit)} devices")

    # 1. Layout generation.
    layout = generate_layout(circuit)
    stats = layout.statistics()
    print(f"layout   : {int(stats['shape_count'])} shapes on "
          f"{len(layout.layers_used())} layers, "
          f"bounding box {layout.area():.0f} um^2")

    # 2./3. Extraction and LVS.
    extraction = extract_netlist(layout)
    report = compare(extraction.circuit, circuit)
    print(f"extract  : {extraction.summary()}")
    print(f"LVS      : {report.summary()}")

    # 4. GLRFM fault extraction.
    statistics = DefectStatistics.table_1()
    distribution = DefectSizeDistribution()
    extractor = FaultExtractor(layout, extraction, circuit,
                               statistics=statistics,
                               distribution=distribution,
                               min_probability=1e-10)
    faults = extractor.run()
    print(f"\nLIFT     : {faults.summary()}\n")
    print(format_ranking(faults, limit=15))

    # 5. Monte-Carlo cross-check (inductive fault analysis).
    sampler = SpotDefectSampler(layout, extraction.connectivity, statistics,
                                distribution, seed=1995)
    monte_carlo = sampler.sample(2000)
    print("\nMonte-Carlo spot defects (2000 samples):",
          dict(monte_carlo.count_by_effect()))
    print("most frequent bridged net pairs:",
          monte_carlo.bridge_pairs().most_common(5))

    # The layout and the fault list can be written to their interchange
    # formats for use by external tools.
    print("\nlayout text format preview:")
    print("\n".join(textio.dumps(layout).splitlines()[:6]) + "\n...")
    print("\nfault list (RFM) preview:")
    print("\n".join(faults.dumps().splitlines()[:6]) + "\n...")


if __name__ == "__main__":
    main()
