"""Modified nodal analysis plumbing: options, state and builder.

The dense reference system (:class:`MNASystem`) and the cached LU helper
(:func:`make_lu_solver`) live in :mod:`repro.spice.analysis.backends` with
the other system representations — device stamps must reach matrix memory
only through the backend scatter seam — and are re-exported here for
backward compatibility.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ...errors import AnalysisError
from ...units import DEFAULT_TEMPERATURE_C
from ..devices.base import CompanionCapacitorBank, Device as _Device
from ..netlist import Circuit
from .backends import (MNASystem, SolverBackend, make_lu_solver,
                       select_backend)

__all__ = ["MNABuilder", "MNASystem", "SimState", "SimulationOptions",
           "make_lu_solver"]


@dataclass
class SimulationOptions:
    """Tuning knobs shared by all analyses (SPICE ``.options`` equivalent)."""

    #: Relative convergence tolerance on solution variables.
    reltol: float = 1e-3
    #: Absolute voltage tolerance [V].
    vntol: float = 1e-6
    #: Absolute current tolerance [A] (branch unknowns).
    abstol: float = 1e-9
    #: Minimum conductance stamped on every node diagonal [S].
    gmin: float = 1e-12
    #: Maximum Newton iterations for the operating point.
    itl1: int = 200
    #: Maximum Newton iterations per transient timestep.
    itl4: int = 60
    #: Simulation temperature [degrees Celsius].
    temperature: float = DEFAULT_TEMPERATURE_C
    #: Transient integration method ladder: "trap" (default; BE first
    #: step, trapezoidal, BDF-3..5 under the adaptive order controller),
    #: "gear"/"bdf" (BE first step, then BDF-2..5) or "be" (backward
    #: Euler pinned at order 1).
    integration: str = "trap"
    #: Largest node-voltage change applied per Newton iteration [V].
    max_voltage_step: float = 10.0
    #: Number of decades for gmin stepping when the plain OP fails.
    gmin_steps: int = 10
    #: Number of source-stepping increments when gmin stepping also fails.
    source_steps: int = 10
    #: Smallest internal transient step as a fraction of the print step.
    min_step_fraction: float = 1.0 / 256.0

    def __post_init__(self) -> None:
        def invalid(name: str, requirement: str):
            return AnalysisError(
                f"SimulationOptions.{name} must be {requirement}, got "
                f"{getattr(self, name)!r}")

        def real(value) -> bool:
            return (isinstance(value, numbers.Real)
                    and not isinstance(value, bool) and math.isfinite(value))

        for name in ("itl1", "itl4"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise invalid(name, "an integer >= 1")
        for name in ("reltol", "vntol", "abstol"):
            value = getattr(self, name)
            if not real(value) or value <= 0.0:
                raise invalid(name, "finite and > 0")
        for name in ("gmin", "max_voltage_step"):
            value = getattr(self, name)
            if not real(value) or value < 0.0:
                raise invalid(name, "finite and >= 0")
        method = self.integration
        if not (isinstance(method, str)
                and (method.lower().startswith("trap")
                     or method.lower() in ("gear", "bdf", "be"))):
            raise invalid("integration", 'one of "trap", "gear", "bdf" or "be"')


class SimState:
    """Mutable per-analysis state shared with the device stamps."""

    def __init__(self, size: int, options: SimulationOptions, mode: str = "op"):
        self.mode = mode
        self.options = options
        self.x = np.zeros(size)
        self.time = 0.0
        self.dt = 0.0
        #: Companion-model coefficients published by the transient driver.
        self.integ_c0 = 0.0
        self.integ_c1 = 0.0
        #: Predictor polynomial evaluated at the new time point (full
        #: solution vector) and its time derivative, published by the
        #: transient driver for fixed-leading-coefficient BDF steps
        #: (``None`` for trap/BE steps — the legacy two-term companion
        #: formula applies then).  With these set, a companion element
        #: stamps ``geq = integ_c0 * C`` and
        #: ``ieq = C * (pred_dv - integ_c0 * pred_v)`` so the corrector
        #: solves ``x' = pred_dx + integ_c0 * (x - pred_x)``; the matrix
        #: still depends only on ``integ_c0`` (the fixed leading
        #: coefficient), which is what keeps the per-step-size
        #: factorisation caches valid across BDF orders.
        self.integ_pred_x: np.ndarray | None = None
        self.integ_pred_dx: np.ndarray | None = None
        self.gmin = options.gmin
        self.temperature = options.temperature
        #: Scale factor applied to independent sources (source stepping).
        self.source_factor = 1.0
        #: Per-source value overrides (used by DC sweeps), keyed by name.
        self.source_overrides: dict[str, float] = {}
        #: Angular frequency for AC analysis [rad/s].
        self.omega = 0.0
        #: Whether device/user initial conditions should be honoured.
        self.use_ic = False
        #: Set by nonlinear devices when voltage-step limiting was active in
        #: the last stamp; Newton refuses to declare convergence while set.
        self.limited = False
        #: Iteration count of the most recent Newton solve (telemetry).
        self.last_newton_iterations = 0

    def v(self, index: int) -> float:
        """Voltage of the matrix row ``index`` (ground rows return 0)."""
        if index < 0:
            return 0.0
        return float(self.x[index].real)

    def pred(self, index: int) -> float:
        """Predictor value of matrix row ``index`` (ground rows return 0)."""
        if index < 0 or self.integ_pred_x is None:
            return 0.0
        return float(self.integ_pred_x[index])

    def pred_d(self, index: int) -> float:
        """Predictor derivative of row ``index`` (ground rows return 0)."""
        if index < 0 or self.integ_pred_dx is None:
            return 0.0
        return float(self.integ_pred_dx[index])


class MNABuilder:
    """Binds a circuit to matrix indices and assembles MNA systems.

    Besides the legacy :meth:`build` (full reassembly from scratch), the
    builder offers the Newton fast path used by
    :func:`~repro.spice.analysis.newton.solve_newton`:

    * :meth:`assemble_constant` stamps everything that is fixed across the
      Newton iterations of one solve (linear devices, source values at the
      present time, companion-model history) into a cached base system; all
      companion capacitances go through one vectorized
      :class:`~repro.spice.devices.base.CompanionCapacitorBank` scatter.
    * :meth:`build_iteration` copies the base into a reused work system and
      stamps only the nonlinear device linearisations on top.

    The representation of the base/work systems (dense matrix vs sparse COO
    accumulation) is delegated to a solver backend
    (:mod:`repro.spice.analysis.backends`); ``solver_backend`` is ``"auto"``
    (select by matrix size), ``"dense"``, ``"sparse"`` or an explicit
    :class:`~repro.spice.analysis.backends.SolverBackend` instance.  The
    legacy :meth:`build` and the complex-valued :meth:`build_ac` always use
    dense systems regardless of the backend.
    """

    def __init__(self, circuit: Circuit, options: SimulationOptions | None = None,
                 solver_backend=None):
        self.circuit = circuit
        self.options = options or SimulationOptions()
        self.devices = circuit.devices
        for device in self.devices:
            device.prepare(circuit)
        self.node_names = circuit.nodes()
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        next_index = len(self.node_names)
        for device in self.devices:
            device.bind(self.node_index)
            next_index += device.assign_branches(next_index)
        self.num_nodes = len(self.node_names)
        self.size = next_index
        self.nonlinear_devices = [d for d in self.devices if d.is_nonlinear()]
        # Group nonlinear devices into vectorized per-iteration banks where
        # the device type provides one; the rest stay on the scalar path.
        bank_groups: dict[type, list] = {}
        self._scalar_nonlinear = []
        for device in self.nonlinear_devices:
            bank_cls = type(device).ITERATION_BANK
            if bank_cls is None:
                self._scalar_nonlinear.append(device)
            else:
                bank_groups.setdefault(bank_cls, []).append(device)
        self.iteration_banks = [cls(group)
                                for cls, group in bank_groups.items()]
        # Devices whose stamp_constant stamps something: nonlinear devices
        # on the default stamp_constant contribute nothing there.
        self._constant_devices = [
            d for d in self.devices
            if not d.is_nonlinear()
            or type(d).stamp_constant is not _Device.stamp_constant]
        entries = []
        for device in self.devices:
            entries.extend(device.companion_entries())
        self.cap_bank = CompanionCapacitorBank(entries)
        # Devices the transient driver must still call accept_timestep on:
        # everything with a non-default override whose state is not fully
        # covered by the companion bank.
        self._accept_devices = [
            d for d in self.devices
            if type(d).accept_timestep is not _Device.accept_timestep
            and not d.companion_only_accept]
        self._diagonal = np.arange(self.num_nodes)
        if isinstance(solver_backend, SolverBackend):
            self.backend = solver_backend
        else:
            self.backend = select_backend(self.size, solver_backend)
        self._base = self.backend.create_system(self.size)
        self._work = self.backend.create_system(self.size)

    @property
    def is_linear(self) -> bool:
        """True when the circuit needs no Newton iteration at all."""
        return not self.nonlinear_devices

    # ------------------------------------------------------------------
    def new_state(self, mode: str) -> SimState:
        return SimState(self.size, self.options, mode)

    def build(self, state: SimState) -> MNASystem:
        """Assemble the (real) MNA system for the present state."""
        system = MNASystem(self.size)
        state.limited = False
        for device in self.devices:
            device.stamp(system, state)
        self._stamp_gmin(system, state)
        return system

    def assemble_constant(self, state: SimState):
        """Assemble the iteration-constant base system for one Newton solve."""
        base = self._base
        base.clear()
        for device in self._constant_devices:
            device.stamp_constant(base, state)
        if state.mode == "tran":
            self.cap_bank.stamp_tran(base, state)
        self._stamp_gmin(base, state)
        return base

    def build_iteration(self, state: SimState):
        """Base system plus the present nonlinear linearisations.

        Requires a preceding :meth:`assemble_constant` for this solve.
        """
        work = self._work
        work.copy_from(self._base)
        state.limited = False
        for bank in self.iteration_banks:
            bank.stamp_iteration(work, state)
        for device in self._scalar_nonlinear:
            device.stamp_iteration(work, state)
        return work

    def begin_iterations(self) -> np.ndarray:
        """Per-solve setup of the build_iteration loop; call once before it.

        Returns the absolute convergence tolerance of every unknown
        (``vntol`` on node rows, ``abstol`` on branch rows).  The banks
        keep their Newton state across solves, so nothing is loaded.
        """
        options = self.options
        tolerance = np.full(self.size, options.abstol)
        tolerance[:self.num_nodes] = options.vntol
        return tolerance

    def end_iterations(self) -> None:
        """Per-solve teardown of the build_iteration loop; call once after
        it (also on failure).  The banks own their Newton state, so the
        last linearisation is already where AC analysis and reporting read
        it and nothing is flushed."""

    def accept_timestep(self, state: SimState) -> None:
        """Commit the accepted transient sub-step to device history.

        Companion capacitances are committed in one vectorized pass by the
        bank; only devices with additional dynamic state (e.g. inductors)
        are visited individually.
        """
        self.cap_bank.accept(state)
        for device in self._accept_devices:
            device.accept_timestep(state)

    def build_ac(self, state: SimState) -> MNASystem:
        """Assemble the complex small-signal system at ``state.omega``."""
        system = MNASystem(self.size, dtype=complex)
        for device in self.devices:
            device.stamp_ac(system, state)
        self._stamp_gmin(system, state)
        return system

    def _stamp_gmin(self, system, state: SimState) -> None:
        system.add_diagonal(self._diagonal, state.gmin)

    # ------------------------------------------------------------------
    def voltage(self, solution: np.ndarray, node: str) -> float | complex:
        """Voltage of a node name in a solution vector."""
        from ..netlist import normalize_node, GROUND

        node = normalize_node(node)
        if node == GROUND:
            return 0.0
        index = self.node_index[node]
        value = solution[index]
        return complex(value) if np.iscomplexobj(solution) else float(value)

    def node_voltages(self, solution: np.ndarray) -> dict[str, float]:
        return {name: (complex(solution[i]) if np.iscomplexobj(solution)
                       else float(solution[i]))
                for name, i in self.node_index.items()}
