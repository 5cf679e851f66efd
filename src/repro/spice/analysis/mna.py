"""Modified nodal analysis plumbing: options, state and builder.

The dense reference system (:class:`MNASystem`) lives in
:mod:`repro.spice.analysis.backends` with the other system
representations — device stamps must reach matrix memory only through
the backend scatter seam.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ...errors import AnalysisError
from ...units import DEFAULT_TEMPERATURE_C
from ..devices.base import CompanionCapacitorBank, Device as _Device
from ..devices.mosfet import FusedMosfetBanks, Mosfet, MosfetBank
from ..netlist import Circuit
from .backends import (MNASystem, SolverBackend, StackedMNASystem,
                       select_backend)

__all__ = ["MNABuilder", "SimState", "SimulationOptions"]


#: Relative convergence tolerance on solution variables.
RELTOL = 1e-3
#: Absolute voltage tolerance [V] (node rows).
VNTOL = 1e-6
#: Absolute current tolerance [A] (branch rows).
ABSTOL = 1e-9
#: Minimum conductance stamped on every node diagonal [S].
GMIN = 1e-12
#: Maximum Newton iterations of an operating-point solve.
ITL1 = 200
#: Simulation temperature [degrees Celsius].
TEMPERATURE = DEFAULT_TEMPERATURE_C
#: Largest node-voltage change applied per Newton iteration [V].
MAX_VOLTAGE_STEP = 10.0
#: Smallest internal transient step as a fraction of the print step.
MIN_STEP_FRACTION = 1.0 / 256.0


@dataclass
class SimulationOptions:
    """The one tuning knob of the transient analysis (SPICE ``.options``
    equivalent); the other simulator settings are the constants above."""

    #: Maximum Newton iterations per transient timestep.
    itl4: int = 60

    def __post_init__(self) -> None:
        value = self.itl4
        if (not isinstance(value, numbers.Integral)
                or isinstance(value, bool) or value < 1):
            raise AnalysisError(
                f"SimulationOptions.itl4 must be an integer >= 1, got "
                f"{value!r}")


class SimState:
    """Mutable per-analysis state shared with the device stamps."""

    def __init__(self, size: int, mode: str = "op"):
        self.mode = mode
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
        self.gmin = GMIN
        self.temperature = TEMPERATURE
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

    def note_limiting(self, exceeded: np.ndarray) -> None:
        """Set :attr:`limited` if any entry of a device bank's per-lane
        limiting mask ``exceeded`` is set."""
        if np.count_nonzero(exceeded):
            self.limited = True

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

    Every large-signal system (operating point, DC sweep, transient, and
    the AC analysis's refresh at the operating point) is built in two
    parts, as :func:`~repro.spice.analysis.newton.solve_newton` does:

    * :meth:`assemble_constant` stamps everything that is fixed across the
      Newton iterations of one solve (linear devices, source values at the
      present time, companion-model history) into a cached base system; all
      companion capacitances go through one vectorized
      :class:`~repro.spice.devices.base.CompanionCapacitorBank` scatter.
    * :meth:`build_iteration` copies the base into a reused work system and
      stamps only the nonlinear device linearisations on top: every MOSFET
      through :attr:`mosfet_bank`, then each other nonlinear device.

    The representation of the base/work systems (dense matrix vs sparse COO
    accumulation) is delegated to a solver backend
    (:mod:`repro.spice.analysis.backends`); ``solver_backend`` is ``"auto"``
    (select by matrix size), ``"dense"``, ``"sparse"`` or an explicit
    :class:`~repro.spice.analysis.backends.SolverBackend` instance.  The
    complex-valued :meth:`build_ac` always uses a dense system regardless
    of the backend.
    """

    def __init__(self, circuit: Circuit, solver_backend=None):
        self.circuit = circuit
        self.devices = circuit.devices
        # One merged parameter mapping per MOSFET model card, shared by
        # the devices of that card.
        mosfet_params: dict = {}
        for device in self.devices:
            if isinstance(device, Mosfet):
                device.prepare(circuit, mosfet_params)
            else:
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
        # Every MOSFET is linearised by one vectorized bank; the other
        # nonlinear devices stamp their own iterations.
        mosfets = [d for d in self.nonlinear_devices if isinstance(d, Mosfet)]
        #: The :class:`~repro.spice.devices.mosfet.MosfetBank` of the
        #: circuit's MOSFETs (``None``: the circuit has none).
        self.mosfet_bank = MosfetBank(mosfets) if mosfets else None
        self._scalar_nonlinear = [d for d in self.nonlinear_devices
                                  if not isinstance(d, Mosfet)]
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
        # Devices with transient history beyond what the banks own.
        self._init_devices = [
            d for d in self.devices
            if type(d).init_state is not _Device.init_state]
        # Devices with history of their own to commit on accepted steps.
        self._accept_devices = [
            d for d in self.devices
            if type(d).accept_timestep is not _Device.accept_timestep]
        self._diagonal = np.arange(self.num_nodes)
        tolerance = np.full(self.size, ABSTOL)
        tolerance[:self.num_nodes] = VNTOL
        tolerance.flags.writeable = False
        self._tolerance = tolerance
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
        return SimState(self.size, mode)

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
        if self.mosfet_bank is not None:
            self.mosfet_bank.stamp_iteration(work, state)
        for device in self._scalar_nonlinear:
            device.stamp_iteration(work, state)
        return work

    def fusion_key(self):
        """Builders with the same key (not ``None``) may have their Newton
        iterations built and solved together by :class:`FusedIteration`:
        dense systems of one size, all with or all without a MOSFET bank."""
        if not isinstance(self._work, MNASystem):
            return None
        return (self.size, self.mosfet_bank is not None)

    def begin_iterations(self) -> np.ndarray:
        """Per-solve setup of the build_iteration loop; call once before it.

        Returns the absolute convergence tolerance of every unknown
        (:data:`VNTOL` on node rows, :data:`ABSTOL` on branch rows), one
        read-only vector built with the builder.  The banks keep their
        Newton state across solves, so nothing is loaded.
        """
        return self._tolerance

    def end_iterations(self) -> None:
        """Per-solve teardown of the build_iteration loop; call once after
        it (also on failure).  The banks own their Newton state, so the
        last linearisation is already where AC analysis and reporting read
        it and nothing is flushed."""

    def init_state(self, state: SimState) -> None:
        """Initialise the transient history from the initial solution
        ``state.x``.

        The companion bank starts every capacitance at once and the MOSFET
        bank zeros its members' limiting history; only devices with
        history of their own (diodes, inductors) are visited.
        """
        self.cap_bank.init_state(state)
        if self.mosfet_bank is not None:
            self.mosfet_bank.init_state()
        for device in self._init_devices:
            device.init_state(state)

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


class FusedIteration:
    """:meth:`MNABuilder.build_iteration` of several circuit variants at
    once, for one lockstep Newton round.

    The builders share one :meth:`~MNABuilder.fusion_key`.  Variant ``j``
    is linearised into member ``j`` of one
    :class:`~repro.spice.analysis.backends.StackedMNASystem`, which then
    solves all of them with one LAPACK call.  Each member gets exactly
    what the variant's own ``build_iteration`` stamps, in the same order:
    the base copy, the MOSFET bank stamps, then the other nonlinear
    devices.  The difference is that the MOSFET banks are evaluated once
    for all variants
    (:class:`~repro.spice.devices.mosfet.FusedMosfetBanks`), setting each
    variant's ``limited`` flag on its own.  The object is reused for every
    round with the same builders and states.
    """

    def __init__(self, builders, states):
        self._builders = list(builders)
        self._states = list(states)
        self.system = StackedMNASystem(len(self._builders),
                                       self._builders[0].size)
        banks = [builder.mosfet_bank for builder in self._builders]
        self._fused = (None if banks[0] is None
                       else FusedMosfetBanks(banks, self.system, self._states))

    def build(self) -> StackedMNASystem:
        """The stacked system, every member linearised around its
        variant's present iterate."""
        members = self.system.members
        for builder, state, member in zip(self._builders, self._states,
                                          members):
            member.copy_from(builder._base)
            state.limited = False
        if self._fused is not None:
            self._fused.stamp_iteration()
        for builder, state, member in zip(self._builders, self._states,
                                          members):
            for device in builder._scalar_nonlinear:
                device.stamp_iteration(member, state)
        return self.system
