"""Small-signal AC analysis."""

from __future__ import annotations

import numpy as np

from ...errors import AnalysisError
from ..netlist import Circuit, normalize_node
from ..waveform import Waveform
from .dc import solve_operating_point
from .mna import MNABuilder


class ACResult:
    """Complex node voltages versus frequency."""

    def __init__(self, frequencies: np.ndarray,
                 node_traces: dict[str, np.ndarray]):
        self.frequencies = np.asarray(frequencies, dtype=float)
        self._nodes = node_traces

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def complex_waveform(self, node: str) -> np.ndarray:
        node = normalize_node(node)
        if node not in self._nodes:
            raise AnalysisError(f"unknown node {node!r} in AC result")
        return self._nodes[node]

    def magnitude(self, node: str) -> Waveform:
        values = np.abs(self.complex_waveform(node))
        return Waveform(self.frequencies, values, name=f"|v({node})|",
                        x_unit="Hz")

    def magnitude_db(self, node: str) -> Waveform:
        values = 20.0 * np.log10(np.maximum(np.abs(self.complex_waveform(node)),
                                            1e-30))
        return Waveform(self.frequencies, values, name=f"vdb({node})",
                        unit="dB", x_unit="Hz")

    def phase_deg(self, node: str) -> Waveform:
        values = np.degrees(np.angle(self.complex_waveform(node)))
        return Waveform(self.frequencies, values, name=f"vp({node})",
                        unit="deg", x_unit="Hz")


class ACAnalysis:
    """SPICE ``.ac dec|lin n fstart fstop`` equivalent."""

    def __init__(self, circuit: Circuit, fstart: float, fstop: float,
                 points: int = 10, sweep: str = "dec"):
        if fstart <= 0.0 or fstop <= 0.0 or fstop < fstart:
            raise AnalysisError("invalid AC frequency range")
        if points < 1:
            raise AnalysisError("AC analysis needs at least one point")
        if sweep not in ("dec", "lin"):
            raise AnalysisError(f"unknown AC sweep type {sweep!r}")
        self.circuit = circuit
        self.fstart = float(fstart)
        self.fstop = float(fstop)
        self.points = int(points)
        self.sweep = sweep

    def frequencies(self) -> np.ndarray:
        if self.sweep == "lin":
            return np.linspace(self.fstart, self.fstop, self.points)
        decades = np.log10(self.fstop / self.fstart)
        count = max(int(np.ceil(decades * self.points)) + 1, 2)
        return np.logspace(np.log10(self.fstart), np.log10(self.fstop), count)

    def run(self) -> ACResult:
        builder = MNABuilder(self.circuit)
        # Linearise around the DC operating point.
        op_solution = solve_operating_point(builder)
        op_state = builder.new_state("op")
        op_state.x = op_solution
        # Refresh the device linearisations at the operating point.
        builder.assemble_constant(op_state)
        builder.build_iteration(op_state)

        freqs = self.frequencies()
        traces = {name: np.zeros(freqs.size, dtype=complex)
                  for name in builder.node_names}
        for index, frequency in enumerate(freqs):
            state = builder.new_state("ac")
            state.x = op_solution
            state.omega = 2.0 * np.pi * float(frequency)
            system = builder.build_ac(state)
            solution = system.solve()
            for name, node_idx in builder.node_index.items():
                traces[name][index] = solution[node_idx]
        return ACResult(freqs, traces)
