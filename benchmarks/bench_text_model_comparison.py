"""Section VI (text) -- resistor model versus source model.

The paper reports that modelling the hard faults with the source model or
the resistor model yields "nearly identical fault coverage plots", while the
source-model simulation took 43 % longer (4383 s vs 3068 s on the 1995
workstation).  Absolute CPU seconds are meaningless today; the benchmark
compares the two models on the 25 most likely LIFT faults and reports the
coverage agreement and the run-time ratio.
"""

from repro.anafault import (
    CampaignSettings,
    FaultModelOptions,
    FaultSimulator,
    PoolExecutor,
    ToleranceSettings,
)
from repro.circuits import OUTPUT_NODE

FAULT_COUNT = 25


def test_text_model_comparison(benchmark, vco_pair, cat_extraction, record,
                               fault_budget):
    circuit, _layout = vco_pair
    fault_count = (FAULT_COUNT if fault_budget is None
                   else min(FAULT_COUNT, fault_budget))
    faults = cat_extraction.realistic_faults.top(fault_count)

    def run_both():
        results = {}
        for name, model in (("resistor", FaultModelOptions.resistor()),
                            ("source", FaultModelOptions.source())):
            settings = CampaignSettings(
                tstop=4e-6, tstep=1e-8, use_ic=True,
                observation_nodes=(OUTPUT_NODE,),
                tolerances=ToleranceSettings(2.0, 0.2e-6),
                fault_model=model)
            results[name] = FaultSimulator(circuit, faults, settings).run(executor=PoolExecutor(2))
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    resistor = results["resistor"]
    source = results["source"]
    detected_resistor = resistor.detected_ids()
    detected_source = source.detected_ids()

    # "Nearly identical fault coverage plots": the two detected sets may
    # differ in at most a couple of marginal faults.
    # Both models share the fault count, so bounding the detected-set
    # difference also bounds the coverage gap (a fixed absolute coverage
    # tolerance would not scale down to tiny BENCH_SMOKE lists).
    symmetric_difference = detected_resistor ^ detected_source
    assert len(symmetric_difference) <= max(2, fault_count // 10)

    cpu_resistor = sum(r.elapsed_seconds for r in resistor.records)
    cpu_source = sum(r.elapsed_seconds for r in source.records)
    ratio = cpu_source / cpu_resistor if cpu_resistor else float("nan")

    lines = [
        "Section VI  resistor model vs source model "
        f"({fault_count} most likely LIFT faults)",
        "",
        f"{'':<26}{'resistor model':>16}{'source model':>16}",
        "-" * 60,
        f"{'fault coverage':<26}{resistor.fault_coverage():>15.1%} "
        f"{source.fault_coverage():>15.1%}",
        f"{'detected faults':<26}{len(detected_resistor):>16}{len(detected_source):>16}",
        f"{'fault CPU time [s]':<26}{cpu_resistor:>16.1f}{cpu_source:>16.1f}",
        "-" * 60,
        f"coverage sets differ in {len(symmetric_difference)} fault(s)",
        f"source/resistor CPU time ratio: {ratio:.2f} "
        "(paper: 1.43; our source model adds one ideal source per fault, so "
        "the matrices are nearly the same size and the ratio is close to 1)",
        f"shorting resistance {resistor.settings.fault_model.short_resistance:g} Ohm, "
        f"open resistance {resistor.settings.fault_model.open_resistance:g} Ohm",
    ]
    record("text_model_comparison.txt", "\n".join(lines) + "\n")
