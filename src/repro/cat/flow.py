"""The end-to-end CAT flow of Fig. 1.

``CATFlow`` glues the individual tools together the way the paper describes
the design/test process:

1. start from the schematic and (optionally) its complete fault list,
2. optionally reduce it pre-layout with L2RFM,
3. once the layout exists, extract the circuit and run LIFT (GLRFM) to get
   the weighted realistic fault list,
4. hand the fault list to AnaFAULT, simulate, and report fault coverage.

The flow weights faults with the paper's Table 1 defect statistics and the
default defect size distribution, reports GLRFM faults above a probability
of 1e-9, and keeps the most likely ones covering
:data:`PROBABILITY_COVERAGE` of the total; the one setting is the AnaFAULT
``campaign``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..anafault import CampaignResult, CampaignSettings, FaultSimulator
from ..extract import ExtractionResult, LVSReport, compare, extract_netlist
from ..layout import Layout
from ..lift import (
    FaultExtractor,
    FaultList,
    faults_covering_fraction,
    l2rfm_fault_list,
    schematic_fault_list,
)
from ..spice import Circuit


#: The realistic fault list keeps only the most likely faults covering this
#: fraction of the total occurrence probability (LIFT "identifies and ranks
#: the most likely realistic faults").
PROBABILITY_COVERAGE = 0.95


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
    """Run the complete CAT flow for one circuit and its layout.

    ``campaign`` holds the AnaFAULT settings :meth:`run` simulates with
    (``CampaignSettings()`` when not given).
    """

    def __init__(self, schematic: Circuit, layout: Layout, *,
                 campaign: CampaignSettings | None = None):
        self.schematic = schematic
        self.layout = layout
        self.campaign = campaign or CampaignSettings()

    # ------------------------------------------------------------------
    def extract_faults(self) -> CATResult:
        """Run extraction + LIFT without the fault simulation."""
        extraction = extract_netlist(self.layout)
        lvs = compare(extraction.circuit, self.schematic)
        schematic_faults = schematic_fault_list(self.schematic)
        l2rfm_faults = l2rfm_fault_list(self.schematic)
        realistic = faults_covering_fraction(
            FaultExtractor(self.layout, extraction, self.schematic,
                           lvs).run(),
            PROBABILITY_COVERAGE)
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
        simulator = FaultSimulator(self.schematic, faults, self.campaign)
        result.campaign = simulator.run(executor=executor)
        return result
