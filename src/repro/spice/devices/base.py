"""Device base classes and shared stamping helpers.

Every device knows how to *stamp* itself into a modified-nodal-analysis (MNA)
system for the analysis modes supported by the simulator:

``stamp(system, state)``
    Large-signal stamp used by the operating point, DC sweep and transient
    analyses.  Nonlinear devices linearise themselves around the present
    Newton guess found in ``state.x``.
``stamp_ac(system, state)``
    Small-signal stamp used by the AC analysis.  Nonlinear devices use the
    conductances stored during the last operating-point stamp.

The Newton fast path additionally splits the large-signal stamp in two:

``stamp_constant(system, state)``
    Contributions that do not depend on the Newton iterate ``state.x`` and
    therefore stay fixed across all iterations of one solve (linear device
    stamps, time-dependent source values, companion-model history).
``stamp_iteration(system, state)``
    Contributions that must be re-linearised around the present iterate
    (nonlinear device characteristics).

``stamp_constant + stamp_iteration + companion capacitances`` must always be
equivalent to ``stamp``; companion capacitances announced through
:meth:`Device.companion_entries` are stamped once per solve by the builder's
:class:`CompanionCapacitorBank` instead of per device.

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
    #: True when :meth:`accept_timestep` commits nothing beyond the
    #: companion capacitances announced via :meth:`companion_entries`; the
    #: builder then handles the commit through its vectorized bank instead
    #: of calling the device.
    companion_only_accept = False
    #: Optional class implementing vectorized per-iteration stamping for all
    #: devices of this type at once: ``bank_cls(devices)`` builds the bank
    #: once per analysis, ``stamp_iteration(system, state)`` stamps every
    #: member per Newton iteration and ``init_state()`` resets their
    #: Newton state at the start of a transient.  The bank owns the
    #: members' Newton state across solves; the devices keep views of it,
    #: so the scalar path reads and writes the same numbers.  ``None``
    #: keeps the scalar :meth:`stamp_iteration` path.
    ITERATION_BANK: type | None = None

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
        and the Newton state of an :attr:`ITERATION_BANK` are initialised
        by the builder's banks (:meth:`~repro.spice.analysis.mna.\
MNABuilder.init_state`); a device overrides this only for history of
        its own."""

    def accept_timestep(self, state) -> None:
        """Commit the accepted solution of the current timestep to history."""

    # ------------------------------------------------------------------
    # Stamps
    # ------------------------------------------------------------------
    def stamp(self, system, state) -> None:
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
        """Yield ``(CompanionCapacitor, pos_index, neg_index)`` triples for
        the builder's vectorized capacitor bank.  Only valid after
        :meth:`bind`."""
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


def replaced_slot(values: np.ndarray, slot: int, value) -> np.ndarray:
    """A copy of ``values`` with ``values[slot] = value``.

    The state arrays a bank shares with its devices (a
    :class:`CompanionHistory`, a ``MosfetState``) are copy-on-write: never
    written in place, a bank rebinds freshly computed arrays and a device
    rebinds this copy.  So a bank may share one array between several
    fields, and a device write never reaches an array the bank still uses.
    """
    values = values.copy()
    values[slot] = value
    return values


class CompanionHistory:
    """Companion history ``v_prev``/``i_prev`` of a group of capacitances.

    One array entry per capacitance, copy-on-write (see
    :func:`replaced_slot`).  A :class:`CompanionCapacitor` reads and writes
    its entry through ``(holder, slot)``; a :class:`CompanionCapacitorBank`
    owns one holder for all its members and rebinds both arrays on every
    accepted step.  The holder references no capacitor, so a bank and its
    capacitors never form a reference cycle and a dropped circuit is freed
    by reference counting alone.
    """

    __slots__ = ("v_prev", "i_prev")

    def __init__(self, v_prev: np.ndarray, i_prev: np.ndarray):
        self.v_prev = v_prev
        self.i_prev = i_prev

    @classmethod
    def zeros(cls, count: int) -> "CompanionHistory":
        return cls(np.zeros(count), np.zeros(count))


class CompanionCapacitor:
    """A linear capacitance stamped via its companion model.

    Used both by the explicit :class:`~repro.spice.devices.passives.Capacitor`
    device and by the MOSFET terminal capacitances.  The companion model uses
    the integration coefficients published by the transient driver in the
    simulation state (``state.integ_c0``, ``state.integ_c1``).  For
    fixed-leading-coefficient BDF steps the driver additionally publishes
    the predictor solution/derivative vectors (``state.integ_pred_x`` /
    ``state.integ_pred_dx``); the equivalent current then comes from the
    predicted branch voltage and its derivative instead of the one-step
    ``v_prev``/``i_prev`` history, while ``geq`` stays
    ``integ_c0 * C`` — the matrix depends on the leading coefficient only,
    at every order.

    ``v_prev``/``i_prev`` are views of one slot of a
    :class:`CompanionHistory`: the slot a :class:`CompanionCapacitorBank`
    assigns when it adopts the capacitance, or a private one-slot holder
    allocated (at zero) when the scalar path first touches a capacitance
    no bank adopted.  ``initial_voltage`` is the ``ic=`` the bank starts
    the history from under ``use_ic`` (``None``: the initial solution).
    """

    def __init__(self, capacitance: float,
                 initial_voltage: float | None = None):
        self.capacitance = float(capacitance)
        self.initial_voltage = initial_voltage
        self._history: CompanionHistory | None = None
        self._slot = 0

    def _holder(self) -> CompanionHistory:
        history = self._history
        if history is None:
            history = self._history = CompanionHistory.zeros(1)
        return history

    @property
    def v_prev(self) -> float:
        return float(self._holder().v_prev[self._slot])

    @v_prev.setter
    def v_prev(self, value: float) -> None:
        history = self._holder()
        history.v_prev = replaced_slot(history.v_prev, self._slot, value)

    @property
    def i_prev(self) -> float:
        return float(self._holder().i_prev[self._slot])

    @i_prev.setter
    def i_prev(self, value: float) -> None:
        history = self._holder()
        history.i_prev = replaced_slot(history.i_prev, self._slot, value)

    def _ieq(self, state, pos: int, neg: int, geq: float) -> float:
        if state.integ_pred_x is not None:
            # BDF corrector: i = C*x' with x' = dpred + c0*(v - vpred).
            v_pred = state.pred(pos) - state.pred(neg)
            dv_pred = state.pred_d(pos) - state.pred_d(neg)
            return self.capacitance * dv_pred - geq * v_pred
        return -(geq * self.v_prev + state.integ_c1 * self.i_prev)

    def stamp_tran(self, system, state, pos: int, neg: int) -> None:
        if self.capacitance <= 0.0:
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, pos, neg, geq)
        stamp_conductance(system, pos, neg, geq)
        # Branch current i = geq*v + ieq flows from pos to neg.
        stamp_current_source(system, pos, neg, ieq)

    def stamp_ac(self, system, state, pos: int, neg: int) -> None:
        if self.capacitance <= 0.0:
            return
        admittance = 1j * state.omega * self.capacitance
        stamp_conductance(system, pos, neg, admittance)

    def accept(self, state, pos: int, neg: int) -> None:
        if self.capacitance <= 0.0:
            return
        v_now = state.v(pos) - state.v(neg)
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, pos, neg, geq)
        self.i_prev = geq * v_now + ieq
        self.v_prev = v_now

    def current(self, state, pos: int, neg: int) -> float:
        """Current through the capacitor at the present (accepted) solution."""
        if self.capacitance <= 0.0:
            return 0.0
        return self.i_prev


class CompanionCapacitorBank:
    """Vectorized transient stamp of every companion capacitance at once.

    The bank precomputes the scatter index map of all capacitor stamps
    (matrix entries ``(p,p)``, ``(n,n)``, ``(p,n)``, ``(n,p)`` and the two
    RHS entries, with ground terminals dropped).  Each Newton solve then
    fills the shared MNA system with two vectorized ``system.scatter``
    calls (dense: ``np.add.at``; sparse: one appended COO chunk) instead of
    hundreds of per-device Python calls.

    The bank owns the companion history: one :class:`CompanionHistory`
    holds ``v_prev``/``i_prev`` of every member as arrays, the stamp reads
    them directly, :meth:`init_state` starts them from the initial
    solution and :meth:`accept` rebinds them.  It points every member's
    ``v_prev``/``i_prev`` views at its slot of the shared holder, so the
    scalar path (``CompanionCapacitor.stamp_tran``/``accept``) keeps
    reading and writing the same numbers.
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
        entries = [entry for entry in entries if entry[0].capacitance > 0.0]
        caps, pos, neg = zip(*entries) if entries else ((), (), ())
        self.caps = list(caps)
        self.capacitance = np.array([cap.capacitance for cap in caps])
        self.history = CompanionHistory.zeros(len(caps))
        for slot, cap in enumerate(caps):
            cap._history = self.history
            cap._slot = slot
        ic = [(slot, cap.initial_voltage) for slot, cap in enumerate(caps)
              if cap.initial_voltage is not None]
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
        return len(self.caps)

    def _ieq(self, state, geq: np.ndarray) -> np.ndarray:
        if state.integ_pred_x is not None:
            v_pred = self._gather(state.integ_pred_x)
            dv_pred = self._gather(state.integ_pred_dx)
            return self.capacitance * dv_pred - geq * v_pred
        history = self.history
        return -(geq * history.v_prev + state.integ_c1 * history.i_prev)

    def stamp_tran(self, system, state) -> None:
        """Equivalent of calling ``CompanionCapacitor.stamp_tran`` on every
        registered capacitance."""
        if not self.caps:
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
        self.history.v_prev = v_prev
        self.history.i_prev = np.zeros(len(self.caps))

    def accept(self, state) -> None:
        """Equivalent of calling ``CompanionCapacitor.accept`` on every
        registered capacitance: commit the accepted timestep to history."""
        if not self.caps:
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        v_now = self._gather(state.x)
        self.history.i_prev = geq * v_now + ieq
        self.history.v_prev = v_now
