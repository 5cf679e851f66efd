"""The vectorized MOSFET kernel and the bank-owned Newton state.

:meth:`MosfetBank.stamp_iteration` is where most of every transient's time
goes, so it is written for speed: one ``(4, n)`` gather, masked copies
instead of ``np.where``, a fast path that skips the drain/source exchange
when no channel is reversed, shared subexpressions and limiting by
``minimum``/``maximum`` bounds.  None of that may move a bit of any
record.  Two oracles pin it down:

* The device layer and Newton loop as they were before, kept verbatim:
  :class:`LegacyMosfetBank` with the per-solve history round trip through
  the devices it relied on (:class:`LegacyBuilder`),
  :class:`LegacyCompanionCapacitorBank`, which gathers the companion
  history from the capacitances and commits it one by one, and
  :func:`legacy_solve_newton`.  Whole transients must produce
  byte-identical print rows and equal ``stats`` either way.
* The scalar :meth:`Mosfet.stamp_iteration` must give bitwise-identical
  stamps, limiting history and linearisations for every device, over
  every lane of the kernel: NMOS and PMOS, reversed channels, cutoff,
  saturation and triode, forward body bias, ``gamma=0``, grounded
  terminals and active limiting, alone and mixed within one bank.

The bank owns the Newton and companion state and the devices keep views
of it through holders that reference no device, so a dropped circuit is
freed by reference counting alone; the last tests pin that, and that the
operating-point and AC paths still see the last linearisation.
"""

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anafault import inject_fault
from repro.cat import CATFlow
from repro.circuits import (VCOParameters, build_vco, build_vco_layout,
                            nominal_transient_settings)
from repro.circuits.library import build_cmos_inverter
from repro.circuits.models import add_default_models
from repro.errors import ConvergenceError, SingularMatrixError
from repro.spice import (ACAnalysis, Circuit, Mosfet, OperatingPointAnalysis,
                         Resistor, TransientAnalysis, TransientOptions,
                         VoltageSource)
from repro.spice.analysis import dc as dc_module
from repro.spice.analysis import mna as mna_module
from repro.spice.analysis import transient as transient_module
from repro.spice.analysis.backends import MNASystem
from repro.spice.analysis.mna import MNABuilder
from repro.spice.devices import DCShape
from repro.spice.devices.base import CompanionCapacitorBank
from repro.spice.devices.mosfet import OP_KEYS
from repro.spice.netlist import Model

#: The LTE settings of the adaptive fig. 3 / fig. 5 studies.
ADAPTIVE = TransientOptions(mode="adaptive", lte_reltol=3e-3,
                            lte_abstol=1e-4, dt_max=8e-8)


# ---------------------------------------------------------------------------
# The kernel before the rewrite, verbatim
# ---------------------------------------------------------------------------

def _fetlim_vec(v_new: np.ndarray, v_old: np.ndarray,
                vto: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.spice.devices.limits.fetlim` (identical
    piecewise arithmetic, evaluated elementwise)."""
    vt_old = v_old - vto
    vt_new = v_new - vto
    upper = 2.0 * vt_old + 2.0
    both = np.where(vt_new > upper, upper,
                    np.where((vt_old > 2.0) & (vt_new < 0.5 * vt_old),
                             0.5 * vt_old, vt_new))
    leaving = np.maximum(vt_new, -0.5)
    entering = np.minimum(vt_new, 2.0)
    result = np.where(vt_old >= 0.0,
                      np.where(vt_new >= 0.0, both, leaving),
                      np.where(vt_new >= 0.0, entering, vt_new))
    return result + vto


def _limvds_vec(v_new: np.ndarray, v_old: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.spice.devices.limits.limvds`."""
    rising = v_new > v_old
    high = np.where(rising, np.minimum(v_new, 3.0 * v_old + 2.0),
                    np.where(v_new < 3.5, np.maximum(v_new, 2.0), v_new))
    low = np.where(rising, np.minimum(v_new, 4.0), np.maximum(v_new, -0.5))
    return np.where(v_old >= 3.5, high, low)


class LegacyMosfetBank:
    """Vectorized Newton-iteration stamp of all level-1 MOSFETs at once.

    The bank precomputes the stamp index map of every channel stamp (the
    eight matrix slots ``{d,s} x {g,d,s,b}`` and the two RHS entries per
    device, ground terminals dropped) so that each Newton iteration gathers
    the terminal voltages, evaluates the Shichman-Hodges equations and the
    SPICE limiting functions in array form, and fills the shared system with
    two vectorized ``system.scatter`` calls.  The arithmetic mirrors
    :meth:`Mosfet.stamp_iteration` operation for operation, so the two paths
    produce bitwise-identical stamps.

    Device objects stay the owners of the limiting history and the last
    linearisation (``_op``) *between* solves: :meth:`load_history` gathers
    them when a solve starts and :meth:`store_history` writes them back when
    it ends, which keeps the scalar path (legacy ``build``, the AC refresh,
    operating-point reporting) fully consistent.
    """

    def __init__(self, mosfets):
        self.mosfets = list(mosfets)
        count = len(self.mosfets)
        idx = np.array([m._idx for m in self.mosfets], dtype=int)
        self._gather_clip = np.maximum(idx, 0)
        self._gather_ground = idx < 0
        d, g, s, b = idx.T
        self.pol = np.array([m.polarity for m in self.mosfets])

        def param(key):
            return np.array([float(m.params[key]) for m in self.mosfets])

        self.beta = np.array([float(m.params["kp"]) * m.multiplier * m.w / m.l
                              for m in self.mosfets])
        self.lam = param("lambda")
        self.vto = np.abs(param("vto"))
        self.gamma = param("gamma")
        self.phi = np.maximum(param("phi"), 0.1)
        self.sqrt_phi = np.sqrt(self.phi)
        self.vgs_last = np.zeros(count)
        self.vds_last = np.zeros(count)
        self._last_op: tuple | None = None

        # Matrix scatter map: slot k of device i contributes value V[k, i]
        # at (rows[k][i], cols[k][i]); ground entries are dropped up front.
        slot_rows = (d, d, d, d, s, s, s, s)
        slot_cols = (g, d, s, b, g, d, s, b)
        m_rows, m_cols, m_slot, m_dev = [], [], [], []
        for slot, (rows, cols) in enumerate(zip(slot_rows, slot_cols)):
            for dev in range(count):
                if rows[dev] >= 0 and cols[dev] >= 0:
                    m_rows.append(rows[dev])
                    m_cols.append(cols[dev])
                    m_slot.append(slot)
                    m_dev.append(dev)
        self._m_index = (np.asarray(m_rows, dtype=int),
                         np.asarray(m_cols, dtype=int))
        self._m_flat = (np.asarray(m_slot, dtype=int) * count
                        + np.asarray(m_dev, dtype=int))
        r_rows, r_slot, r_dev = [], [], []
        for slot, rows in enumerate((d, s)):
            for dev in range(count):
                if rows[dev] >= 0:
                    r_rows.append(rows[dev])
                    r_slot.append(slot)
                    r_dev.append(dev)
        self._r_rows = np.asarray(r_rows, dtype=int)
        self._r_flat = (np.asarray(r_slot, dtype=int) * count
                        + np.asarray(r_dev, dtype=int))

    def __len__(self) -> int:
        return len(self.mosfets)

    # ------------------------------------------------------------------
    def load_history(self) -> None:
        """Gather the limiting history from the device objects."""
        count = len(self.mosfets)
        self.vgs_last = np.fromiter((m._vgs_last for m in self.mosfets),
                                    float, count)
        self.vds_last = np.fromiter((m._vds_last for m in self.mosfets),
                                    float, count)

    def store_history(self) -> None:
        """Write the limiting history and the last linearisation back to the
        device objects (AC analysis and reporting read them there)."""
        for index, mosfet in enumerate(self.mosfets):
            mosfet._vgs_last = float(self.vgs_last[index])
            mosfet._vds_last = float(self.vds_last[index])
        if self._last_op is None:
            return
        ids, gm, gds, gmbs, vgs, vds, vbs, reverse = self._last_op
        for index, mosfet in enumerate(self.mosfets):
            mosfet._op = {"ids": float(ids[index]), "gm": float(gm[index]),
                          "gds": float(gds[index]), "gmbs": float(gmbs[index]),
                          "vgs": float(vgs[index]), "vds": float(vds[index]),
                          "vbs": float(vbs[index]),
                          "reverse": bool(reverse[index])}

    # ------------------------------------------------------------------
    def _threshold(self, vbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`Mosfet._threshold` (von and dvon/dvbs)."""
        negative = vbs <= 0.0
        # Clamps keep the unused lane of each where() free of sqrt/division
        # warnings; the selected lane is untouched.
        sqrt_term_n = np.sqrt(np.maximum(self.phi - vbs, 1e-300))
        von_n = self.vto + self.gamma * (sqrt_term_n - self.sqrt_phi)
        dvon_n = -self.gamma / (2.0 * sqrt_term_n)
        denom = np.where(negative, 1.0, 1.0 + vbs / (2.0 * self.phi))
        sqrt_term_p = self.sqrt_phi / denom
        von_p = self.vto + self.gamma * (sqrt_term_p - self.sqrt_phi)
        dvon_p = -self.gamma * self.sqrt_phi / (2.0 * self.phi * denom * denom)
        von = np.where(negative, von_n, von_p)
        dvon = np.where(negative, dvon_n, dvon_p)
        no_body = self.gamma == 0.0
        return np.where(no_body, self.vto, von), np.where(no_body, 0.0, dvon)

    def _drain_current(self, vgs, vds, von, dvon):
        """Vectorized :meth:`Mosfet._drain_current` for the limited
        evaluation-frame voltages."""
        vgst = vgs - von
        clm = 1.0 + self.lam * vds
        saturated = vgst <= vds
        ids_sat = 0.5 * self.beta * vgst * vgst * clm
        gm_sat = self.beta * vgst * clm
        gds_sat = 0.5 * self.beta * vgst * vgst * self.lam
        ids_tri = self.beta * (vgst - 0.5 * vds) * vds * clm
        gm_tri = self.beta * vds * clm
        gds_tri = (self.beta * (vgst - vds) * clm
                   + self.beta * (vgst - 0.5 * vds) * vds * self.lam)
        cutoff = vgst <= 0.0
        ids = np.where(cutoff, 0.0, np.where(saturated, ids_sat, ids_tri))
        gm = np.where(cutoff, 0.0, np.where(saturated, gm_sat, gm_tri))
        gds = np.where(cutoff, 0.0, np.where(saturated, gds_sat, gds_tri))
        gmbs = -gm * dvon
        return ids, gm, gds, gmbs

    def stamp_iteration(self, system, state) -> None:
        """Stamp every channel linearisation around ``state.x`` at once."""
        voltages = np.where(self._gather_ground, 0.0,
                            state.x[self._gather_clip])
        vd, vg, vs, vb = voltages.T
        pol = self.pol
        vds = pol * (vd - vs)
        reverse = vds < 0.0
        # Exchange drain and source roles where the channel is reversed.
        v_ref = np.where(reverse, vd, vs)
        vds_f = np.where(reverse, -vds, vds)
        vgs_f = pol * (vg - v_ref)
        vbs_f = pol * (vb - v_ref)

        # Newton step limiting on the evaluation-frame voltages.
        von, dvon = self._threshold(vbs_f)
        vgs_req, vds_req = vgs_f, vds_f
        vgs_f = _fetlim_vec(vgs_f, self.vgs_last, von)
        vds_f = _limvds_vec(vds_f, self.vds_last)
        limited = ((np.abs(vgs_f - vgs_req) > 1e-6 + 1e-3 * np.abs(vgs_req))
                   | (np.abs(vds_f - vds_req) > 1e-6 + 1e-3 * np.abs(vds_req)))
        if limited.any():
            state.limited = True
        self.vgs_last = vgs_f
        self.vds_last = vds_f

        ids, gm, gds, gmbs = self._drain_current(vgs_f, vds_f, von, dvon)
        self._last_op = (ids, gm, gds, gmbs, vgs_f, vds_f, vbs_f, reverse)

        # Equivalent current of the linearised characteristic (evaluation
        # frame, flowing from the effective drain to the effective source).
        ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs_f
        gds_tot = gds + state.gmin
        total = gm + gds_tot + gmbs
        # Slot values match Mosfet.stamp_iteration: slots are
        # (d,g),(d,d),(d,s),(d,b),(s,g),(s,d),(s,s),(s,b).
        v_dg = np.where(reverse, -gm, gm)
        v_dd = np.where(reverse, total, gds_tot)
        v_ds = -np.where(reverse, gds_tot, total)
        v_db = np.where(reverse, -gmbs, gmbs)
        values = np.concatenate((v_dg, v_dd, v_ds, v_db,
                                 -v_dg, -v_dd, -v_ds, -v_db))
        system.scatter(self._m_index[0], self._m_index[1],
                       values[self._m_flat])
        # RHS: current pol*ieq extracted at the effective drain, injected at
        # the effective source.
        i_rhs = pol * ieq
        r_d = np.where(reverse, i_rhs, -i_rhs)
        values_rhs = np.concatenate((r_d, -r_d))
        system.scatter_rhs(self._r_rows, values_rhs[self._r_flat])


class LegacyCompanionCapacitorBank(CompanionCapacitorBank):
    """The capacitor bank before it owned the companion history: gather
    ``v_prev``/``i_prev`` from the capacitances on every stamp and commit
    an accepted step capacitance by capacitance."""

    def _history(self) -> tuple[np.ndarray, np.ndarray]:
        count = len(self.caps)
        v_prev = np.fromiter((cap.v_prev for cap in self.caps), float, count)
        i_prev = np.fromiter((cap.i_prev for cap in self.caps), float, count)
        return v_prev, i_prev

    def _ieq(self, state, geq: np.ndarray) -> np.ndarray:
        if state.integ_pred_x is not None:
            v_pred = self._gather(state.integ_pred_x)
            dv_pred = self._gather(state.integ_pred_dx)
            return self.capacitance * dv_pred - geq * v_pred
        v_prev, i_prev = self._history()
        return -(geq * v_prev + state.integ_c1 * i_prev)

    def accept(self, state) -> None:
        if not self.caps:
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        v_now = self._gather(state.x)
        i_now = geq * v_now + ieq
        for cap, v, i in zip(self.caps, v_now.tolist(), i_now.tolist()):
            cap.v_prev = v
            cap.i_prev = i


class LegacyBuilder(MNABuilder):
    """The per-solve history round trip the legacy bank needs: gather the
    limiting history from the devices before the Newton loop, write it
    and the linearisation back after.  The constant part visits every
    device, as it used to."""

    def assemble_constant(self, state):
        base = self._base
        base.clear()
        for device in self.devices:
            device.stamp_constant(base, state)
        if state.mode == "tran":
            self.cap_bank.stamp_tran(base, state)
        self._stamp_gmin(base, state)
        return base

    def begin_iterations(self):
        for bank in self.iteration_banks:
            bank.load_history()

    def end_iterations(self):
        for bank in self.iteration_banks:
            bank.store_history()


def legacy_solve_newton(builder, state, x0=None, max_iterations=None):
    """The Newton loop before the per-solve tolerance vector: tolerances
    assembled in two halves every iteration, the previous iterate copied."""
    options = builder.options
    limit = max_iterations if max_iterations is not None else options.itl1
    if x0 is not None:
        state.x = np.array(x0, dtype=float, copy=True)
    has_nonlinear = bool(builder.nonlinear_devices)
    num_nodes = builder.num_nodes

    base = builder.assemble_constant(state)

    if not has_nonlinear:
        state.limited = False
        state.x = base.solve()
        state.last_newton_iterations = 1
        return state.x

    builder.begin_iterations()
    try:
        previous = state.x.copy()
        for iteration in range(1, limit + 1):
            system = builder.build_iteration(state)
            try:
                solution = system.solve()
            except SingularMatrixError:
                if iteration == 1:
                    raise
                state.x = 0.5 * (state.x + previous)
                continue

            delta = solution - state.x
            max_step = options.max_voltage_step
            if max_step > 0.0 and num_nodes > 0:
                worst = np.max(np.abs(delta[:num_nodes])) if num_nodes else 0.0
                if worst > max_step:
                    delta *= max_step / worst
                    solution = state.x + delta

            tolerance = np.empty_like(solution)
            reference = np.maximum(np.abs(solution), np.abs(state.x))
            tolerance[:num_nodes] = (options.reltol * reference[:num_nodes]
                                     + options.vntol)
            tolerance[num_nodes:] = (options.reltol * reference[num_nodes:]
                                     + options.abstol)
            converged = (bool(np.all(np.abs(delta) <= tolerance))
                         and not state.limited)

            previous = state.x.copy()
            state.x = solution

            if converged and iteration > 1:
                state.last_newton_iterations = iteration
                return state.x
    finally:
        builder.end_iterations()

    state.last_newton_iterations = limit
    worst_index = int(np.argmax(np.abs(state.x - previous)))
    worst_node = None
    if worst_index < num_nodes:
        worst_node = builder.node_names[worst_index]
    raise ConvergenceError(
        f"Newton iteration did not converge in {limit} iterations "
        f"(mode={state.mode}, time={state.time:g})",
        iterations=limit, worst_node=worst_node)


def print_rows_and_stats(analysis: TransientAnalysis):
    run = analysis.start()
    while run.advance():
        pass
    return run.data.tobytes(), run.finish().stats


def assert_kernels_agree(make_analysis, monkeypatch) -> dict:
    """Byte-identical print rows and equal stats with the device layer and
    the Newton loop as they were: legacy MOSFET and capacitor banks, the
    per-solve history round trip and the old tolerance assembly."""
    rows, stats = print_rows_and_stats(make_analysis())
    with monkeypatch.context() as patch:
        patch.setattr(Mosfet, "ITERATION_BANK", LegacyMosfetBank)
        patch.setattr(mna_module, "CompanionCapacitorBank",
                      LegacyCompanionCapacitorBank)
        patch.setattr(transient_module, "MNABuilder", LegacyBuilder)
        patch.setattr(transient_module, "solve_newton", legacy_solve_newton)
        patch.setattr(dc_module, "solve_newton", legacy_solve_newton)
        legacy_rows, legacy_stats = print_rows_and_stats(make_analysis())
    assert rows == legacy_rows
    assert stats == legacy_stats
    return stats


@pytest.fixture(scope="module")
def vco_faults():
    circuit, layout = build_vco_layout()
    faults = CATFlow(circuit, layout).extract_faults().realistic_faults
    return circuit, {fault.fault_id: fault for fault in faults}


@pytest.mark.slow
@pytest.mark.parametrize("timestep", [TransientOptions(), ADAPTIVE],
                         ids=["fixed", "adaptive"])
@pytest.mark.parametrize("control_voltage",
                         [3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5])
def test_nominal_vco_matches_the_legacy_kernel(control_voltage, timestep,
                                               monkeypatch):
    def analysis():
        return TransientAnalysis(
            build_vco(VCOParameters(control_voltage=control_voltage)),
            timestep=timestep, **nominal_transient_settings())

    stats = assert_kernels_agree(analysis, monkeypatch)
    assert stats["timestep_mode"] == timestep.mode


@pytest.mark.slow
@pytest.mark.parametrize("timestep", [TransientOptions(), ADAPTIVE],
                         ids=["fixed", "adaptive"])
@pytest.mark.parametrize("fault_id", [18, 55, 68])
def test_faulty_vco_matches_the_legacy_kernel(vco_faults, fault_id, timestep,
                                              monkeypatch):
    circuit, faults = vco_faults

    def analysis():
        return TransientAnalysis(inject_fault(circuit, faults[fault_id]),
                                 tstop=4e-6, tstep=1e-8, use_ic=True,
                                 timestep=timestep)

    stats = assert_kernels_agree(analysis, monkeypatch)
    assert stats["steps_rejected"] > 0


# ---------------------------------------------------------------------------
# Bank against the scalar device, stamp for stamp
# ---------------------------------------------------------------------------

def bank_fixture(specs, voltages, history):
    """A builder over one MOSFET per spec, the state at ``voltages`` and
    the limiting history set to ``history``.

    ``specs`` are ``(kind, terminals, params)``; terminals name nodes or
    ``"0"``.  Devices share no node except ground, so every matrix entry
    collects the stamps of one device only and the bank's slot-major
    scatter order equals the scalar stamp order.
    """
    circuit = Circuit("bank")
    # Keeps the system non-empty when every terminal is grounded.
    circuit.add(Resistor("RREF", "ref", "0", 1e3))
    voltages = dict(voltages, ref=1.0)
    for index, (kind, terminals, params) in enumerate(specs):
        circuit.add_model(Model(f"mod{index}", kind, **params))
        circuit.add(Mosfet(f"M{index}", *terminals, f"mod{index}",
                           w=10e-6, l=2e-6))
    builder = MNABuilder(circuit)
    state = builder.new_state("tran")
    state.x = np.array([voltages[name] for name in builder.node_names])
    bank, = builder.iteration_banks
    for mosfet, (vgs_last, vds_last) in zip(bank.mosfets, history):
        mosfet._vgs_last = vgs_last
        mosfet._vds_last = vds_last
    return builder, bank, state


def stamp_both(specs, voltages, history):
    """Stamp through the bank and through every scalar device from the
    same history; return both outcomes."""
    builder, bank, state = bank_fixture(specs, voltages, history)
    outcomes = []
    for stamp in (bank.stamp_iteration, None):
        for mosfet, (vgs_last, vds_last) in zip(bank.mosfets, history):
            mosfet._vgs_last = vgs_last
            mosfet._vds_last = vds_last
        system = MNASystem(builder.size)
        state.limited = False
        if stamp is not None:
            stamp(system, state)
        else:
            for mosfet in bank.mosfets:
                mosfet.stamp_iteration(system, state)
        outcomes.append((
            system.matrix.tobytes(), system.rhs.tobytes(), state.limited,
            [(m._vgs_last, m._vds_last) for m in bank.mosfets],
            [m.operating_point for m in bank.mosfets]))
    return outcomes


def assert_bitwise_equal(vector, scalar):
    matrix, rhs, limited, history, ops = vector
    assert matrix == scalar[0]
    assert rhs == scalar[1]
    assert limited == scalar[2]
    # Compare floats by bit pattern (0.0 vs -0.0 and NaN included).
    bits = np.array([v for pair in history for v in pair]).tobytes()
    assert bits == np.array([v for pair in scalar[3] for v in pair]).tobytes()
    for op, scalar_op in zip(ops, scalar[4]):
        assert op["reverse"] == scalar_op["reverse"]
        keys = OP_KEYS[:-1]
        assert (np.array([op[k] for k in keys]).tobytes()
                == np.array([scalar_op[k] for k in keys]).tobytes())


NMOS = {"vto": 0.8, "kp": 5e-5, "gamma": 0.45, "phi": 0.65, "lambda": 0.03}
PMOS = {"vto": -0.9, "kp": 2e-5, "gamma": 0.5, "phi": 0.7, "lambda": 0.05}
NO_BODY = dict(NMOS, gamma=0.0)
FOUR = ("d", "g", "s", "b")

#: One case per kernel lane: (specs, voltages, history, lane check).
LANES = {
    "nmos-saturation": ([("nmos", FOUR, NMOS)],
                        {"d": 4.0, "g": 2.0, "s": 0.0, "b": 0.0},
                        [(2.0, 4.0)],
                        lambda op, limited: op[0]["vgs"] - 0.8 < op[0]["vds"]),
    "nmos-triode": ([("nmos", FOUR, NMOS)],
                    {"d": 0.2, "g": 3.5, "s": 0.0, "b": 0.0},
                    [(3.5, 0.2)],
                    lambda op, limited: op[0]["gds"] > op[0]["gm"]),
    "nmos-cutoff": ([("nmos", FOUR, NMOS)],
                    {"d": 3.0, "g": 0.1, "s": 0.0, "b": 0.0},
                    [(0.1, 3.0)],
                    lambda op, limited: op[0]["ids"] == 0.0),
    "pmos-saturation": ([("pmos", FOUR, PMOS)],
                        {"d": 1.0, "g": 2.5, "s": 5.0, "b": 5.0},
                        [(2.5, 4.0)],
                        lambda op, limited: op[0]["ids"] > 0.0),
    "reversed": ([("nmos", FOUR, NMOS)],
                 {"d": 0.0, "g": 3.0, "s": 2.0, "b": 0.0},
                 [(3.0, 2.0)],
                 lambda op, limited: op[0]["reverse"]),
    "forward-body-bias": ([("nmos", FOUR, NMOS)],
                          {"d": 3.0, "g": 2.0, "s": 0.0, "b": 0.4},
                          [(2.0, 3.0)],
                          lambda op, limited: op[0]["vbs"] > 0.0),
    "no-body-effect": ([("nmos", FOUR, NO_BODY)],
                       {"d": 3.0, "g": 2.0, "s": 0.5, "b": 0.0},
                       [(1.5, 2.5)],
                       lambda op, limited: op[0]["gmbs"] == 0.0),
    "grounded": ([("nmos", ("d", "g", "0", "0"), NMOS)],
                 {"d": 2.0, "g": 2.0},
                 [(2.0, 2.0)],
                 lambda op, limited: op[0]["ids"] > 0.0),
    "limiting-rising": ([("nmos", FOUR, NMOS)],
                 {"d": 9.0, "g": 6.0, "s": 0.0, "b": 0.0},
                 [(0.0, 0.0)],
                 lambda op, limited: limited and op[0]["vds"] == 4.0),
    "limiting-falling": ([("nmos", FOUR, NMOS)],
                         {"d": 0.5, "g": 2.5, "s": 0.0, "b": 0.0},
                         [(5.0, 5.0)],
                         lambda op, limited: limited and op[0]["vds"] == 2.0
                         and op[0]["vgs"] > 2.5),
    "mixed": ([("nmos", FOUR, NMOS),
               ("pmos", ("d1", "g1", "s1", "b1"), PMOS),
               ("nmos", ("d2", "g2", "s2", "b2"), NO_BODY)],
              {"d": 0.0, "g": 3.0, "s": 2.0, "b": 2.3,
               "d1": 1.0, "g1": 2.5, "s1": 5.0, "b1": 5.0,
               "d2": 3.0, "g2": 0.2, "s2": 0.0, "b2": 0.0},
              [(3.0, 2.0), (9.0, 1.0), (0.2, 3.0)],
              lambda op, limited: (op[0]["reverse"] and op[0]["vbs"] > 0.0
                                   and not op[1]["reverse"] and limited
                                   and op[2]["ids"] == 0.0)),
}


@pytest.mark.parametrize("lane", sorted(LANES))
def test_every_kernel_lane_matches_the_scalar_device(lane):
    specs, voltages, history, check = LANES[lane]
    vector, scalar = stamp_both(specs, voltages, history)
    assert_bitwise_equal(vector, scalar)
    assert check(vector[4], vector[2])


volts = st.floats(-6.0, 6.0, allow_nan=False)
device_specs = st.tuples(
    st.sampled_from(["nmos", "pmos"]),
    st.lists(st.sampled_from(["d", "g", "s", "b", "0"]), min_size=4,
             max_size=4),
    st.fixed_dictionaries({
        "vto": st.floats(-1.5, 1.5), "kp": st.floats(1e-6, 1e-4),
        "gamma": st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0),
        "phi": st.floats(0.05, 1.0), "lambda": st.floats(0.0, 0.1)}),
    st.tuples(volts, st.floats(-1.0, 8.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(device_specs, min_size=1, max_size=4),
       st.lists(volts, min_size=16, max_size=16))
def test_bank_stamps_are_bitwise_the_scalar_stamps(devices, node_volts):
    specs, voltages, history = [], {}, []
    for index, (kind, terminals, params, last) in enumerate(devices):
        names = tuple(t if t == "0" else f"{t}{index}" for t in terminals)
        specs.append((kind, names, params))
        history.append(last)
        for position, name in enumerate(names):
            voltages.setdefault(name, node_volts[4 * index + position])
    vector, scalar = stamp_both(specs, voltages, history)
    assert_bitwise_equal(vector, scalar)


# ---------------------------------------------------------------------------
# Bank-owned state: no reference cycles, views stay current
# ---------------------------------------------------------------------------

def test_a_dropped_transient_is_freed_by_reference_counting():
    """Devices view the bank's state through holders that reference no
    device, so neither the banks nor the circuit sit in a reference cycle
    waiting for the cyclic collector (which made every fault variant's
    circuit outlive its simulation)."""
    circuit = copy.deepcopy(build_vco())
    gc.collect()
    gc.disable()
    try:
        run = TransientAnalysis(circuit, tstop=2e-7, tstep=1e-8,
                                use_ic=True).start()
        while run.advance():
            pass
        result = run.finish()
        builder = run.builder
        watched = [circuit, circuit.device("M1"), builder,
                   *builder.iteration_banks, builder.cap_bank]
        refs = [weakref.ref(obj) for obj in watched]
        assert result.stats["steps_accepted"] > 0
        del run, builder, watched, circuit, result
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_operating_point_reports_the_bank_linearisation():
    op = OperatingPointAnalysis(build_cmos_inverter(input_voltage=2.5)).run()
    bank, = op._builder.iteration_banks
    for slot, mosfet in enumerate(bank.mosfets):
        record = op.device_operating_point(mosfet.name)
        assert record == {key: values[slot].item()
                          for key, values in zip(OP_KEYS, bank.newton.op)}
        assert record["gm"] > 0.0


def test_ac_analysis_uses_the_operating_point_linearisation():
    """A common-source stage: the small-signal gain is gm over the output
    conductance of the operating point."""
    circuit = Circuit("common source")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", "vdd", "0", DCShape(5.0)))
    circuit.add(VoltageSource("VIN", "in", "0", DCShape(1.5),
                              ac_magnitude=1.0))
    circuit.add(Resistor("RL", "vdd", "out", 20e3))
    circuit.add(Mosfet("MN", "out", "in", "0", "0", "nch"))
    op = OperatingPointAnalysis(circuit).run().device_operating_point("MN")
    gain = ACAnalysis(circuit, 1.0, 10.0, points=1).run().magnitude("out")
    assert gain.y[0] == pytest.approx(op["gm"] / (op["gds"] + 1.0 / 20e3),
                                      rel=1e-6)
