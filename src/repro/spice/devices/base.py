"""Device base classes and shared stamping helpers.

Every device knows how to *stamp* itself into a modified-nodal-analysis (MNA)
system for the analysis modes supported by the simulator:

``stamp_constant(system, state)``
    Contributions that do not depend on the Newton iterate ``state.x`` and
    therefore stay fixed across all iterations of one solve (linear device
    stamps, time-dependent source values, companion-model history).
``stamp_iteration(system, state)``
    Contributions that must be re-linearised around the present iterate
    (nonlinear device characteristics).
``stamp_ac(system, state)``
    Small-signal stamp used by the AC analysis.  Nonlinear devices use the
    conductances stored during the last operating-point stamp.

A device that is all one or the other implements ``stamp(system, state)``
instead: the defaults route it to ``stamp_constant`` for a linear device
and to ``stamp_iteration`` for a nonlinear one.  Capacitances are no
device's stamp: devices announce them through
:meth:`Device.companion_entries` and the builder's
:class:`CompanionCapacitorBank` stamps and commits all of them at once.
MOSFETs stamp nothing themselves either: the builder's
:class:`~repro.spice.devices.mosfet.MosfetBank` linearises all of them.

Node and branch matrix indices are resolved once per analysis by
:meth:`Device.bind` and :meth:`Device.assign_branches`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import NetlistError
from ..netlist import GROUND, normalize_node


class Device:
    """Base class of all circuit elements."""

    #: SPICE netlist prefix letter (``R``, ``C``, ``M`` ...).
    PREFIX = "?"
    #: Number of terminals; subclasses with a variable count override checks.
    NUM_TERMINALS: int | None = None

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("device name must not be empty")
        self.name = str(name)
        node_list = [normalize_node(n) for n in nodes]
        if self.NUM_TERMINALS is not None and len(node_list) != self.NUM_TERMINALS:
            raise NetlistError(
                f"{type(self).__name__} {name!r} needs {self.NUM_TERMINALS} "
                f"nodes, got {len(node_list)}")
        self.nodes: list[str] = node_list
        self._idx: list[int] = []
        self._branches: list[int] = []

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def rename_node(self, old: str, new: str) -> int:
        """Rename terminal connections from ``old`` to ``new``; return count."""
        old = normalize_node(old)
        new = normalize_node(new)
        count = 0
        for position, node in enumerate(self.nodes):
            if node == old:
                self.nodes[position] = new
                count += 1
        return count

    def clone(self) -> "Device":
        """A copy for a cloned circuit (:meth:`Circuit.clone`).

        The copy has its own terminal list and shares the parameter values,
        which are numbers, strings and source shapes that nothing changes
        in place.  Devices with mutable parameters or analysis state
        override this to give the copy its own, as freshly built:
        :meth:`prepare` and :meth:`bind` rebuild the rest before the copy
        is simulated.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.nodes = list(self.nodes)
        twin._idx = list(self._idx)
        twin._branches = list(self._branches)
        return twin

    # ------------------------------------------------------------------
    # Analysis plumbing
    # ------------------------------------------------------------------
    def prepare(self, circuit) -> None:
        """Resolve model cards and cache derived parameters.

        Called once per analysis before any stamping.  The default does
        nothing.
        """

    def branch_count(self) -> int:
        """Number of extra branch-current unknowns this device introduces."""
        return 0

    def is_nonlinear(self) -> bool:
        """True when the device requires Newton-Raphson iteration."""
        return False

    def bind(self, node_index: dict[str, int]) -> None:
        """Store the matrix row/column index of each terminal (-1 = ground)."""
        self._idx = [node_index.get(n, -1) if n != GROUND else -1
                     for n in self.nodes]

    def assign_branches(self, first: int) -> int:
        """Reserve branch-current rows starting at ``first``; return count."""
        count = self.branch_count()
        self._branches = list(range(first, first + count))
        return count

    @property
    def branch_index(self) -> int:
        """Index of the first (usually only) branch-current unknown."""
        if not self._branches:
            raise NetlistError(f"device {self.name!r} has no branch current")
        return self._branches[0]

    # ------------------------------------------------------------------
    # Dynamic state (transient history)
    # ------------------------------------------------------------------
    def init_state(self, state) -> None:
        """Initialise transient history from the initial solution.

        Companion capacitances announced through :meth:`companion_entries`
        and the Newton state of MOSFETs are initialised by the builder's
        banks (:meth:`~repro.spice.analysis.mna.\
MNABuilder.init_state`); a device overrides this only for history of
        its own."""

    def accept_timestep(self, state) -> None:
        """Commit the accepted solution of the current timestep to history."""

    # ------------------------------------------------------------------
    # Stamps
    # ------------------------------------------------------------------
    def stamp(self, system, state) -> None:
        """The whole large-signal stamp of a device that is all constant
        (linear) or all iterate-dependent (nonlinear)."""
        raise NotImplementedError

    def stamp_constant(self, system, state) -> None:
        """Stamp the iteration-constant part (see module docstring).

        The default treats linear devices as fully constant and nonlinear
        devices as fully iterate-dependent.
        """
        if not self.is_nonlinear():
            self.stamp(system, state)

    def stamp_iteration(self, system, state) -> None:
        """Stamp the part that depends on the present Newton iterate."""
        if self.is_nonlinear():
            self.stamp(system, state)

    def companion_entries(self):
        """Yield ``(capacitance, pos_index, neg_index, initial_voltage)``
        tuples for the builder's vectorized capacitor bank
        (``initial_voltage``: the ``ic=`` honoured under ``use_ic``, or
        ``None``).  Only valid after :meth:`bind`."""
        return ()

    def stamp_ac(self, system, state) -> None:
        """Default small-signal stamp: nothing (open circuit)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r}, {self.nodes})"


def stamp_conductance(system, i: int, j: int, g: float) -> None:
    """Stamp a conductance ``g`` between matrix rows ``i`` and ``j``.

    Either index may be ``-1`` to denote the ground node.
    """
    system.add(i, i, g)
    system.add(j, j, g)
    system.add(i, j, -g)
    system.add(j, i, -g)


def stamp_current_source(system, i: int, j: int, current: float) -> None:
    """Stamp an independent current ``current`` flowing from node i to node j
    through the source (i.e. it is extracted from node i and injected into
    node j)."""
    system.add_rhs(i, -current)
    system.add_rhs(j, current)


def stamp_vccs(system, out_p: int, out_n: int, in_p: int, in_n: int,
               gm: float) -> None:
    """Stamp a voltage-controlled current source of transconductance ``gm``.

    The current ``gm * (v(in_p) - v(in_n))`` flows from ``out_p`` to
    ``out_n`` inside the device (it leaves node ``out_p``).
    """
    system.add(out_p, in_p, gm)
    system.add(out_p, in_n, -gm)
    system.add(out_n, in_p, -gm)
    system.add(out_n, in_n, gm)


class CompanionCapacitorBank:
    """Vectorized transient stamp of every companion capacitance at once.

    The bank precomputes the scatter index map of all capacitor stamps
    (matrix entries ``(p,p)``, ``(n,n)``, ``(p,n)``, ``(n,p)`` and the two
    RHS entries, with ground terminals dropped).  Each Newton solve then
    fills the shared MNA system with two vectorized ``system.scatter``
    calls (dense: ``np.add.at``; sparse: one appended COO chunk) instead of
    hundreds of per-device Python calls.

    The bank also owns the companion history, as two arrays with one
    entry per member: :attr:`v_prev` (branch voltage) and :attr:`i_prev`
    (branch current) of the last accepted step.  The stamp reads them,
    :meth:`init_state` starts them from the initial solution and
    :meth:`accept` replaces them.

    The companion model uses the integration coefficients published by
    the transient driver in the simulation state (``state.integ_c0``,
    ``state.integ_c1``): ``geq = integ_c0 * C`` and
    ``ieq = -(geq * v_prev + integ_c1 * i_prev)``.  For
    fixed-leading-coefficient BDF steps the driver additionally publishes
    the predictor solution/derivative vectors (``state.integ_pred_x`` /
    ``state.integ_pred_dx``); the equivalent current then comes from the
    predicted branch voltage and its derivative instead, while ``geq``
    stays ``integ_c0 * C``: the matrix depends on the leading coefficient
    only, at every order.
    """

    #: Matrix entries of one capacitance, in stamp order (p,p), (n,n),
    #: (p,n), (n,p): row and column terminal (0: pos, 1: neg) and sign.
    _MATRIX_ROWS = np.array([0, 1, 0, 1])
    _MATRIX_COLS = np.array([0, 1, 1, 0])
    _MATRIX_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
    #: stamp_current_source(pos, neg, ieq): extracted at pos, injected at
    #: neg.
    _RHS_SIGNS = np.array([-1.0, 1.0])

    def __init__(self, entries):
        entries = [entry for entry in entries if entry[0] > 0.0]
        caps, pos, neg, initial = (zip(*entries) if entries
                                   else ((), (), (), ()))
        self.capacitance = np.array(caps, dtype=float)
        self.v_prev = np.zeros(len(caps))
        self.i_prev = np.zeros(len(caps))
        ic = [(slot, value) for slot, value in enumerate(initial)
              if value is not None]
        self._ic_slots = np.array([slot for slot, _ in ic], dtype=int)
        self._ic_values = np.array([value for _, value in ic], dtype=float)
        # Terminal rows as (count, 2): pos, neg (-1: ground).  Entries are
        # kept capacitance-major, each in stamp order, as np.nonzero walks
        # a (capacitance x entry) mask.
        nodes = np.array((pos, neg), dtype=int).T.copy()
        rows = nodes[:, self._MATRIX_ROWS]
        cols = nodes[:, self._MATRIX_COLS]
        m_cap, m_entry = np.nonzero((rows >= 0) & (cols >= 0))
        self._m_index = (rows[m_cap, m_entry], cols[m_cap, m_entry])
        self._m_cap = m_cap
        self._m_sign = self._MATRIX_SIGNS[m_entry]
        r_cap, r_entry = np.nonzero(nodes >= 0)
        self._r_rows = nodes[r_cap, r_entry]
        self._r_cap = r_cap
        self._r_sign = self._RHS_SIGNS[r_entry]
        pos, neg = nodes.T
        self._pos_clipped = np.maximum(pos, 0)
        self._neg_clipped = np.maximum(neg, 0)
        self._pos_grounded = pos < 0
        self._neg_grounded = neg < 0

    def __len__(self) -> int:
        return len(self.capacitance)

    def _ieq(self, state, geq: np.ndarray) -> np.ndarray:
        if state.integ_pred_x is not None:
            # BDF corrector: i = C*x' with x' = dpred + c0*(v - vpred).
            v_pred = self._gather(state.integ_pred_x)
            dv_pred = self._gather(state.integ_pred_dx)
            return self.capacitance * dv_pred - geq * v_pred
        return -(geq * self.v_prev + state.integ_c1 * self.i_prev)

    def stamp_tran(self, system, state) -> None:
        """Stamp every member's companion model: conductance ``geq`` and
        the branch current ``ieq`` flowing from pos to neg."""
        if not self.capacitance.size:
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        system.scatter(self._m_index[0], self._m_index[1],
                       self._m_sign * geq[self._m_cap])
        system.scatter_rhs(self._r_rows, self._r_sign * ieq[self._r_cap])

    def _gather(self, x: np.ndarray) -> np.ndarray:
        v_pos = np.where(self._pos_grounded, 0.0, x[self._pos_clipped])
        v_neg = np.where(self._neg_grounded, 0.0, x[self._neg_clipped])
        return v_pos - v_neg

    def init_state(self, state) -> None:
        """Start the history from the initial solution ``state.x``: every
        ``v_prev`` the branch voltage (the capacitor's ``ic=`` instead
        under ``state.use_ic``), every ``i_prev`` zero."""
        v_prev = self._gather(state.x)
        if state.use_ic and len(self._ic_slots):
            v_prev[self._ic_slots] = self._ic_values
        self.v_prev = v_prev
        self.i_prev = np.zeros(len(self))

    def accept(self, state) -> None:
        """Commit the accepted timestep to history: the branch voltage and
        the companion current ``geq * v + ieq`` of every member."""
        if not self.capacitance.size:
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        v_now = self._gather(state.x)
        self.i_prev = geq * v_now + ieq
        self.v_prev = v_now
