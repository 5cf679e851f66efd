"""LIFT: realistic fault extraction (schematic, L2RFM and GLRFM flows)."""

from .faults import (
    BridgingFault,
    Fault,
    MOSFET_TERMINALS,
    OpenFault,
    ParametricFault,
    SplitNodeFault,
    StuckOpenFault,
    terminal_index,
)
from .faultlist import FaultList
from .schematic_faults import (
    count_schematic_faults,
    schematic_fault_list,
)
from .l2rfm import L2RFMReducer, l2rfm_fault_list
from .extraction import (
    FailureSite,
    FaultExtractionReport,
    FaultExtractor,
    extract_faults,
    failure_sites,
)
from .ranking import (
    RankedFault,
    faults_covering_fraction,
    format_ranking,
    rank_faults,
    unweighted_fault_coverage,
    weighted_fault_coverage,
)

__all__ = [
    "Fault",
    "BridgingFault",
    "OpenFault",
    "SplitNodeFault",
    "StuckOpenFault",
    "ParametricFault",
    "MOSFET_TERMINALS",
    "terminal_index",
    "FaultList",
    "schematic_fault_list",
    "count_schematic_faults",
    "L2RFMReducer",
    "l2rfm_fault_list",
    "FaultExtractor",
    "FaultExtractionReport",
    "FailureSite",
    "failure_sites",
    "extract_faults",
    "RankedFault",
    "rank_faults",
    "faults_covering_fraction",
    "weighted_fault_coverage",
    "unweighted_fault_coverage",
    "format_ranking",
]
