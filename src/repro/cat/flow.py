"""The end-to-end CAT flow of Fig. 1.

``CATFlow`` glues the individual tools together the way the paper describes
the design/test process:

1. start from the schematic and (optionally) its complete fault list,
2. optionally reduce it pre-layout with L2RFM,
3. once the layout exists, extract the circuit and run LIFT (GLRFM) to get
   the weighted realistic fault list,
4. hand the fault list to AnaFAULT, simulate, and report fault coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..anafault import CampaignResult, CampaignSettings, FaultSimulator
from ..defects import DefectSizeDistribution, DefectStatistics
from ..extract import ExtractionResult, LVSReport, compare, extract_netlist
from ..layout import Layout
from ..lift import (
    FaultExtractionOptions,
    FaultExtractor,
    FaultList,
    faults_covering_fraction,
    l2rfm_fault_list,
    schematic_fault_list,
)
from ..spice import Circuit


@dataclass
class CATOptions:
    """Options of the end-to-end flow."""

    statistics: DefectStatistics = field(default_factory=DefectStatistics.table_1)
    distribution: DefectSizeDistribution = field(default_factory=DefectSizeDistribution)
    extraction_options: FaultExtractionOptions = field(
        default_factory=lambda: FaultExtractionOptions(min_probability=1e-9))
    #: Keep only the most likely faults covering this fraction of the total
    #: occurrence probability (LIFT "identifies and ranks the most likely
    #: realistic faults").  1.0 keeps everything above the threshold.
    probability_coverage: float = 0.95
    campaign: CampaignSettings = field(default_factory=CampaignSettings)


@dataclass
class CATResult:
    """Everything produced by one run of the flow."""

    schematic: Circuit
    layout: Layout
    extraction: ExtractionResult
    lvs: LVSReport
    schematic_faults: FaultList
    l2rfm_faults: FaultList
    realistic_faults: FaultList
    campaign: CampaignResult | None = None

    def fault_list_sizes(self) -> dict[str, int]:
        """The Fig. 1 funnel: fault list size at each stage."""
        return {
            "all_faults": len(self.schematic_faults),
            "l2rfm": len(self.l2rfm_faults),
            "glrfm": len(self.realistic_faults),
        }

    def reduction_vs_schematic(self) -> float:
        total = len(self.schematic_faults)
        if total == 0:
            return 0.0
        return 1.0 - len(self.realistic_faults) / total


class CATFlow:
    """Run the complete CAT flow for one circuit and its layout."""

    def __init__(self, schematic: Circuit, layout: Layout,
                 options: CATOptions | None = None):
        self.schematic = schematic
        self.layout = layout
        self.options = options or CATOptions()

    # ------------------------------------------------------------------
    def extract_faults(self) -> CATResult:
        """Run extraction + LIFT without the fault simulation."""
        options = self.options
        extraction = extract_netlist(self.layout)
        lvs = compare(extraction.circuit, self.schematic)
        schematic_faults = schematic_fault_list(self.schematic)
        l2rfm_faults = l2rfm_fault_list(
            self.schematic, statistics=options.statistics,
            distribution=options.distribution)
        extractor = FaultExtractor(self.layout, extraction, self.schematic,
                                   lvs, options.statistics,
                                   options.distribution,
                                   options.extraction_options)
        realistic = extractor.run()
        if 0.0 < options.probability_coverage < 1.0:
            realistic = faults_covering_fraction(realistic,
                                                 options.probability_coverage)
        return CATResult(self.schematic, self.layout, extraction, lvs,
                         schematic_faults, l2rfm_faults, realistic)

    def run(self, fault_limit: int | None = None,
            fault_list: FaultList | None = None, *,
            executor=None) -> CATResult:
        """Run the full flow including the AnaFAULT campaign.

        ``fault_limit`` truncates the realistic fault list (useful for quick
        runs); ``fault_list`` overrides LIFT's output entirely (e.g. to
        simulate the schematic fault list instead).  ``executor`` is
        forwarded to :meth:`~repro.anafault.FaultSimulator.run`
        (``PoolExecutor(N)`` for a process pool, ``None`` for the serial
        default).
        """
        result = self.extract_faults()
        faults = fault_list if fault_list is not None else result.realistic_faults
        if fault_limit is not None:
            faults = faults.top(fault_limit)
        simulator = FaultSimulator(self.schematic, faults, self.options.campaign)
        result.campaign = simulator.run(executor=executor)
        return result
