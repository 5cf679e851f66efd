"""DC operating point and DC sweep analyses."""

from __future__ import annotations

import numpy as np

from ...errors import AnalysisError, ConvergenceError, SingularMatrixError
from ..netlist import Circuit, normalize_node, GROUND
from ..waveform import Waveform
from .mna import GMIN, MNABuilder
from .newton import solve_newton

#: Homotopy of :func:`solve_operating_point` when the plain Newton solve
#: fails: gmin stepping from ``GMIN_START`` down to :data:`~.mna.GMIN` in
#: ``GMIN_STEPS`` decades-spaced solves, then source stepping in
#: ``SOURCE_STEPS`` equal increments.
GMIN_START = 1e-2
GMIN_STEPS = 10
SOURCE_STEPS = 10


class OperatingPoint:
    """Result of an operating-point analysis: node voltages and branch
    currents, plus access to per-device operating data."""

    def __init__(self, builder: MNABuilder, solution: np.ndarray):
        self._builder = builder
        self.solution = np.array(solution, copy=True)
        self.node_voltages = builder.node_voltages(self.solution)

    def voltage(self, node: str) -> float:
        node = normalize_node(node)
        if node == GROUND:
            return 0.0
        try:
            return float(self.node_voltages[node])
        except KeyError:
            raise AnalysisError(f"unknown node {node!r}") from None

    def __getitem__(self, node: str) -> float:
        return self.voltage(node)

    def branch_current(self, device_name: str) -> float:
        """Branch current of a device that defines one (V source, L, E, H)."""
        device = self._builder.circuit.device(device_name)
        return float(self.solution[device.branch_index])

    def device_operating_point(self, device_name: str) -> dict:
        """Operating-point record of a nonlinear device (MOSFET/diode)."""
        device = self._builder.circuit.device(device_name)
        op = getattr(device, "operating_point", None)
        if op is None:
            raise AnalysisError(
                f"device {device_name!r} does not expose an operating point")
        return op

    def as_dict(self) -> dict[str, float]:
        return dict(self.node_voltages)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"OperatingPoint({len(self.node_voltages)} nodes)"


class OperatingPointAnalysis:
    """DC operating point with gmin and source stepping fallbacks."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def run(self, initial_guess: dict[str, float] | None = None) -> OperatingPoint:
        builder = MNABuilder(self.circuit)
        solution = solve_operating_point(builder, initial_guess)
        return OperatingPoint(builder, solution)


def _initial_vector(builder: MNABuilder,
                    initial_guess: dict[str, float] | None) -> np.ndarray:
    x0 = np.zeros(builder.size)
    if initial_guess:
        for node, value in initial_guess.items():
            node = normalize_node(node)
            if node in builder.node_index:
                x0[builder.node_index[node]] = value
    return x0


def solve_operating_point(builder: MNABuilder,
                          initial_guess: dict[str, float] | None = None
                          ) -> np.ndarray:
    """Find the DC solution of a bound circuit.

    Tries a plain Newton solve first, then gmin stepping, then source
    stepping.  Raises :class:`ConvergenceError` if all strategies fail.
    """
    x0 = _initial_vector(builder, initial_guess)

    state = builder.new_state("op")
    try:
        return solve_newton(builder, state, x0=x0)
    except (ConvergenceError, SingularMatrixError):
        pass

    # --- gmin stepping -------------------------------------------------
    x = x0.copy()
    try:
        factors = np.logspace(np.log10(GMIN_START), np.log10(GMIN),
                              GMIN_STEPS)
        for gmin in factors:
            state = builder.new_state("op")
            state.gmin = float(gmin)
            x = solve_newton(builder, state, x0=x)
        return x
    except (ConvergenceError, SingularMatrixError):
        pass

    # --- source stepping ------------------------------------------------
    x = x0.copy()
    try:
        for factor in np.linspace(1.0 / SOURCE_STEPS, 1.0, SOURCE_STEPS):
            state = builder.new_state("op")
            state.source_factor = float(factor)
            x = solve_newton(builder, state, x0=x)
        return x
    except (ConvergenceError, SingularMatrixError) as exc:
        raise ConvergenceError(
            "operating point failed (Newton, gmin stepping and source "
            f"stepping all diverged): {exc}") from exc


class DCSweepResult:
    """Result of a DC sweep: node voltages versus the swept source value."""

    def __init__(self, source_name: str, values: np.ndarray,
                 node_traces: dict[str, np.ndarray]):
        self.source_name = source_name
        self.values = values
        self._traces = node_traces

    def waveform(self, node: str) -> Waveform:
        node = normalize_node(node)
        if node not in self._traces:
            raise AnalysisError(f"unknown node {node!r} in sweep result")
        values = self.values
        trace = self._traces[node]
        if values.size > 1 and values[0] > values[-1]:
            # Downward sweeps are stored in ascending-x order for plotting.
            values = values[::-1]
            trace = trace[::-1]
        return Waveform(values, trace, name=f"v({node})",
                        x_unit=self.source_name)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._traces)

    def __getitem__(self, node: str) -> Waveform:
        return self.waveform(node)


class DCSweepAnalysis:
    """Sweep the DC value of one independent source.

    Mirrors the SPICE ``.dc`` card: ``DCSweepAnalysis(circuit, "vin", 0, 5,
    0.1).run()``.
    """

    def __init__(self, circuit: Circuit, source_name: str, start: float,
                 stop: float, step: float):
        if step == 0.0:
            raise AnalysisError("DC sweep step must be non-zero")
        self.circuit = circuit
        self.source_name = source_name
        self.start = float(start)
        self.stop = float(stop)
        self.step = float(step)

    def run(self) -> DCSweepResult:
        builder = MNABuilder(self.circuit)
        # Validate that the source exists and is an independent source.
        source = self.circuit.device(self.source_name)
        if not hasattr(source, "source_value"):
            raise AnalysisError(
                f"{self.source_name!r} is not an independent source")
        count = int(np.floor((self.stop - self.start) / self.step + 0.5)) + 1
        values = self.start + self.step * np.arange(count)

        node_traces = {name: np.zeros(count) for name in builder.node_names}
        x_prev: np.ndarray | None = None
        for index, value in enumerate(values):
            state = builder.new_state("dc")
            state.source_overrides[self.source_name.lower()] = float(value)
            if x_prev is None:
                solution = solve_operating_point(builder)
                # Re-solve with the override applied (solve_operating_point
                # used a fresh state); keep it simple and do a Newton pass.
                state.x = solution
                solution = solve_newton(builder, state, x0=solution)
            else:
                solution = solve_newton(builder, state, x0=x_prev)
            x_prev = solution
            voltages = builder.node_voltages(solution)
            for name in builder.node_names:
                node_traces[name][index] = voltages[name]
        return DCSweepResult(self.source_name, values, node_traces)
