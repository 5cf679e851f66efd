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
    #: once per analysis and ``stamp_iteration(system, state)`` stamps every
    #: member per Newton iteration.  The bank owns the members' Newton
    #: state across solves; the devices keep views of it, so the scalar
    #: path reads and writes the same numbers.  ``None`` keeps the scalar
    #: :meth:`stamp_iteration` path.
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
        """Initialise transient history from the initial solution."""

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
    :class:`CompanionHistory`: a private one-slot holder until a
    :class:`CompanionCapacitorBank` adopts the capacitance and assigns it a
    slot of its own holder.
    """

    def __init__(self, capacitance: float):
        self.capacitance = float(capacitance)
        self._history = CompanionHistory.zeros(1)
        self._slot = 0

    @property
    def v_prev(self) -> float:
        return float(self._history.v_prev[self._slot])

    @v_prev.setter
    def v_prev(self, value: float) -> None:
        history = self._history
        history.v_prev = replaced_slot(history.v_prev, self._slot, value)

    @property
    def i_prev(self) -> float:
        return float(self._history.i_prev[self._slot])

    @i_prev.setter
    def i_prev(self, value: float) -> None:
        history = self._history
        history.i_prev = replaced_slot(history.i_prev, self._slot, value)

    def init_state(self, v_initial: float) -> None:
        self.v_prev = v_initial
        self.i_prev = 0.0

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
    them directly and :meth:`accept` rebinds them.  It starts from zero
    history, as the devices' ``prepare`` leaves their freshly built
    capacitances, and points every member's ``v_prev``/``i_prev`` views at
    its slot of the shared holder, so the scalar path
    (``CompanionCapacitor.stamp_tran``/``accept``, device ``init_state``)
    keeps reading and writing the same numbers.
    """

    def __init__(self, entries):
        entries = [(cap, pos, neg) for cap, pos, neg in entries
                   if cap.capacitance > 0.0]
        self.caps = [cap for cap, _, _ in entries]
        self.capacitance = np.array([cap.capacitance for cap in self.caps])
        self.history = CompanionHistory.zeros(len(self.caps))
        for slot, cap in enumerate(self.caps):
            cap._history = self.history
            cap._slot = slot
        m_rows: list[int] = []
        m_cols: list[int] = []
        m_cap: list[int] = []
        m_sign: list[float] = []
        r_rows: list[int] = []
        r_cap: list[int] = []
        r_sign: list[float] = []
        for k, (_cap, pos, neg) in enumerate(entries):
            for row, col, sign in ((pos, pos, 1.0), (neg, neg, 1.0),
                                   (pos, neg, -1.0), (neg, pos, -1.0)):
                if row >= 0 and col >= 0:
                    m_rows.append(row)
                    m_cols.append(col)
                    m_cap.append(k)
                    m_sign.append(sign)
            # stamp_current_source(pos, neg, ieq): extracted at pos,
            # injected at neg.
            if pos >= 0:
                r_rows.append(pos)
                r_cap.append(k)
                r_sign.append(-1.0)
            if neg >= 0:
                r_rows.append(neg)
                r_cap.append(k)
                r_sign.append(1.0)
        self._m_index = (np.asarray(m_rows, dtype=int),
                         np.asarray(m_cols, dtype=int))
        self._m_cap = np.asarray(m_cap, dtype=int)
        self._m_sign = np.asarray(m_sign)
        self._r_rows = np.asarray(r_rows, dtype=int)
        self._r_cap = np.asarray(r_cap, dtype=int)
        self._r_sign = np.asarray(r_sign)
        pos = np.asarray([p for _, p, _ in entries], dtype=int)
        neg = np.asarray([n for _, _, n in entries], dtype=int)
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
