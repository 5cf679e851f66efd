"""Level-1 (Shichman-Hodges) MOSFET model.

The model covers cutoff / linear / saturation operation, body effect,
channel-length modulation and fixed terminal capacitances (gate overlap,
gate oxide and junction capacitances).  It is the workhorse device for the
VCO test case of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import ModelError
from ...units import EPS0, EPS_SIO2, parse_value
from .base import (CompanionCapacitor, Device, replaced_slot,
                   stamp_current_source)
from .limits import fetlim, limvds

#: Default model parameters for the level-1 model (SPICE defaults).
DEFAULT_MOS_PARAMS = {
    "vto": 0.8,
    "kp": 2.0e-5,
    "gamma": 0.4,
    "phi": 0.65,
    "lambda": 0.02,
    "tox": 2.5e-8,
    "cgso": 2.0e-10,   # F/m of gate width
    "cgdo": 2.0e-10,
    "cgbo": 0.0,
    "cj": 3.0e-4,      # F/m^2 of junction area
    "cjsw": 2.5e-10,   # F/m of junction perimeter
    "is": 1e-14,
}


#: Field order of a linearisation record (``Mosfet.operating_point``).
OP_KEYS = ("ids", "gm", "gds", "gmbs", "vgs", "vds", "vbs", "reverse")


class MosfetState:
    """Newton state of a group of MOSFETs, one array entry per device.

    ``vgs_last``/``vds_last`` are the limiting history and ``op`` is the
    last linearisation as arrays in :data:`OP_KEYS` order, copy-on-write
    (see :func:`~repro.spice.devices.base.replaced_slot`; the bank shares
    the limited voltages between ``op`` and the limiting history).  A
    :class:`MosfetBank` owns one holder for all its members and rebinds
    the arrays on every Newton iteration; each :class:`Mosfet` reads and
    writes its slot through ``(holder, slot)``.  The holder references no
    device: banks and devices never form a reference cycle.
    """

    __slots__ = ("vgs_last", "vds_last", "op")

    def __init__(self, vgs_last: np.ndarray, vds_last: np.ndarray,
                 op: tuple):
        self.vgs_last = vgs_last
        self.vds_last = vds_last
        self.op = op

    @classmethod
    def zeros(cls, count: int) -> "MosfetState":
        op = tuple(np.zeros(count) for _ in OP_KEYS[:-1])
        return cls(np.zeros(count), np.zeros(count),
                   op + (np.zeros(count, dtype=bool),))


class Mosfet(Device):
    """MOSFET ``M<name> drain gate source bulk model W=... L=...``.

    Geometry parameters ``w`` and ``l`` are in metres, ``ad``/``as_`` in
    square metres and ``pd``/``ps`` in metres, following SPICE conventions.
    """

    PREFIX = "M"
    NUM_TERMINALS = 4
    companion_only_accept = True

    def __init__(self, name, drain, gate, source, bulk, model: str,
                 w=10e-6, l=2e-6, ad=0.0, as_=0.0, pd=0.0, ps=0.0,
                 m: float = 1.0):
        super().__init__(name, [drain, gate, source, bulk])
        self.model_name = str(model)
        self.w = parse_value(w)
        self.l = parse_value(l)
        self.ad = parse_value(ad)
        self.as_ = parse_value(as_)
        self.pd = parse_value(pd)
        self.ps = parse_value(ps)
        self.multiplier = parse_value(m)
        # Resolved model parameters (filled in by prepare()).
        self.polarity = 1.0
        self.params = dict(DEFAULT_MOS_PARAMS)
        # Newton history for voltage limiting and the last linearisation
        # (for AC analysis): one slot of a MosfetState, private until a
        # MosfetBank adopts the device.
        self._newton = MosfetState.zeros(1)
        self._slot = 0
        self._caps: dict[str, CompanionCapacitor] = {}

    # ------------------------------------------------------------------
    # Newton state (views of this device's MosfetState slot)
    # ------------------------------------------------------------------
    @property
    def _vgs_last(self) -> float:
        return float(self._newton.vgs_last[self._slot])

    @_vgs_last.setter
    def _vgs_last(self, value: float) -> None:
        newton = self._newton
        newton.vgs_last = replaced_slot(newton.vgs_last, self._slot, value)

    @property
    def _vds_last(self) -> float:
        return float(self._newton.vds_last[self._slot])

    @_vds_last.setter
    def _vds_last(self, value: float) -> None:
        newton = self._newton
        newton.vds_last = replaced_slot(newton.vds_last, self._slot, value)

    @property
    def _op(self) -> dict:
        slot = self._slot
        return {key: values[slot].item()
                for key, values in zip(OP_KEYS, self._newton.op)}

    @_op.setter
    def _op(self, op: dict) -> None:
        newton = self._newton
        newton.op = tuple(replaced_slot(values, self._slot, op[key])
                          for key, values in zip(OP_KEYS, newton.op))

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def is_nonlinear(self) -> bool:
        return True

    def prepare(self, circuit) -> None:
        model = circuit.model(self.model_name)
        if model.kind not in ("nmos", "pmos"):
            raise ModelError(
                f"device {self.name!r}: model {self.model_name!r} is of kind "
                f"{model.kind!r}, expected nmos/pmos")
        self.polarity = 1.0 if model.kind == "nmos" else -1.0
        params = dict(DEFAULT_MOS_PARAMS)
        params.update(model.params)
        self.params = params
        self._vgs_last = 0.0
        self._vds_last = 0.0
        self._build_capacitances()

    def _build_capacitances(self) -> None:
        p = self.params
        cox = EPS0 * EPS_SIO2 / float(p["tox"])
        area = self.w * self.l
        cgs = float(p["cgso"]) * self.w + 0.5 * cox * area
        cgd = float(p["cgdo"]) * self.w + 0.5 * cox * area
        cgb = float(p["cgbo"]) * self.l
        cdb = float(p["cj"]) * self.ad + float(p["cjsw"]) * self.pd
        csb = float(p["cj"]) * self.as_ + float(p["cjsw"]) * self.ps
        scale = self.multiplier
        self._caps = {
            "gs": CompanionCapacitor(cgs * scale),
            "gd": CompanionCapacitor(cgd * scale),
            "gb": CompanionCapacitor(cgb * scale),
            "db": CompanionCapacitor(cdb * scale),
            "sb": CompanionCapacitor(csb * scale),
        }

    def _cap_nodes(self, key: str) -> tuple[int, int]:
        d, g, s, b = self._idx
        mapping = {"gs": (g, s), "gd": (g, d), "gb": (g, b),
                   "db": (d, b), "sb": (s, b)}
        return mapping[key]

    # ------------------------------------------------------------------
    # Large-signal evaluation (in the polarity-normalised frame)
    # ------------------------------------------------------------------
    def _threshold(self, vbs: float) -> tuple[float, float]:
        """Return (von, dvon_dvbs) including body effect."""
        p = self.params
        # Normalise so that vto is positive in the evaluation frame.
        vto = abs(float(p["vto"]))
        gamma = float(p["gamma"])
        phi = max(float(p["phi"]), 0.1)
        if gamma == 0.0:
            return vto, 0.0
        if vbs <= 0.0:
            sqrt_term = math.sqrt(phi - vbs)
            von = vto + gamma * (sqrt_term - math.sqrt(phi))
            dvon = -gamma / (2.0 * sqrt_term)
        else:
            sqrt_phi = math.sqrt(phi)
            denom = 1.0 + vbs / (2.0 * phi)
            sqrt_term = sqrt_phi / denom
            von = vto + gamma * (sqrt_term - sqrt_phi)
            dvon = -gamma * sqrt_phi / (2.0 * phi * denom * denom)
        return von, dvon

    def _drain_current(self, vgs: float, vds: float, vbs: float,
                       threshold: tuple[float, float] | None = None
                       ) -> tuple[float, float, float, float]:
        """Return (ids, gm, gds, gmbs) for vds >= 0 in the normalised frame.

        ``threshold`` short-circuits the body-effect evaluation when the
        caller already computed ``(von, dvon)`` for this ``vbs``.
        """
        p = self.params
        beta = float(p["kp"]) * self.multiplier * self.w / self.l
        lam = float(p["lambda"])
        von, dvon = threshold if threshold is not None else self._threshold(vbs)
        vgst = vgs - von
        if vgst <= 0.0:
            return 0.0, 0.0, 0.0, 0.0
        clm = 1.0 + lam * vds
        if vgst <= vds:
            # Saturation.
            ids = 0.5 * beta * vgst * vgst * clm
            gm = beta * vgst * clm
            gds = 0.5 * beta * vgst * vgst * lam
        else:
            # Linear (triode).
            ids = beta * (vgst - 0.5 * vds) * vds * clm
            gm = beta * vds * clm
            gds = beta * (vgst - vds) * clm + beta * (vgst - 0.5 * vds) * vds * lam
        gmbs = -gm * dvon
        return ids, gm, gds, gmbs

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp(self, system, state) -> None:
        self.stamp_iteration(system, state)
        if state.mode == "tran":
            for key, cap in self._caps.items():
                pos, neg = self._cap_nodes(key)
                cap.stamp_tran(system, state, pos, neg)

    def companion_entries(self):
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            yield cap, pos, neg

    def stamp_iteration(self, system, state) -> None:
        """Channel linearisation only; capacitances are bank-stamped."""
        d, g, s, b = self._idx
        pol = self.polarity
        # Inlined terminal-voltage reads (this is the hottest loop of the
        # whole simulator; a state.v() call per terminal is measurable).
        x = state.x
        vd = float(x[d]) if d >= 0 else 0.0
        vg = float(x[g]) if g >= 0 else 0.0
        vs = float(x[s]) if s >= 0 else 0.0
        vb = float(x[b]) if b >= 0 else 0.0
        vds = pol * (vd - vs)
        reverse = vds < 0.0
        if reverse:
            # Exchange drain and source roles for the evaluation.
            e_d, e_s = s, d
            vds_f = -vds
            vgs_f = pol * (vg - vd)
            vbs_f = pol * (vb - vd)
        else:
            e_d, e_s = d, s
            vds_f = vds
            vgs_f = pol * (vg - vs)
            vbs_f = pol * (vb - vs)

        # Newton step limiting on the evaluation-frame voltages.
        threshold = self._threshold(vbs_f)
        vgs_requested, vds_requested = vgs_f, vds_f
        vgs_f = fetlim(vgs_f, self._vgs_last, threshold[0])
        vds_f = limvds(vds_f, self._vds_last)
        if (abs(vgs_f - vgs_requested) > 1e-6 + 1e-3 * abs(vgs_requested)
                or abs(vds_f - vds_requested) > 1e-6 + 1e-3 * abs(vds_requested)):
            state.limited = True
        self._vgs_last = vgs_f
        self._vds_last = vds_f

        ids, gm, gds, gmbs = self._drain_current(vgs_f, vds_f, vbs_f,
                                                 threshold=threshold)
        self._op = {"ids": ids, "gm": gm, "gds": gds, "gmbs": gmbs,
                    "vgs": vgs_f, "vds": vds_f, "vbs": vbs_f,
                    "reverse": reverse}

        # Equivalent current of the linearised characteristic
        # (in the evaluation frame, flowing from e_d to e_s).
        ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs_f

        gds_tot = gds + state.gmin
        # Conductance stamps: identical pattern for NMOS/PMOS and for
        # normal/reverse operation (the frame change already swapped e_d/e_s).
        system.add(e_d, g, gm)
        system.add(e_d, e_d, gds_tot)
        system.add(e_d, e_s, -(gm + gds_tot + gmbs))
        system.add(e_d, b, gmbs)
        system.add(e_s, g, -gm)
        system.add(e_s, e_d, -gds_tot)
        system.add(e_s, e_s, gm + gds_tot + gmbs)
        system.add(e_s, b, -gmbs)
        stamp_current_source(system, e_d, e_s, pol * ieq)

    def stamp_ac(self, system, state) -> None:
        d, g, s, b = self._idx
        op = self._op
        e_d, e_s = (s, d) if op["reverse"] else (d, s)
        gm, gds, gmbs = op["gm"], op["gds"] + state.gmin, op["gmbs"]
        system.add(e_d, g, gm)
        system.add(e_d, e_d, gds)
        system.add(e_d, e_s, -(gm + gds + gmbs))
        system.add(e_d, b, gmbs)
        system.add(e_s, g, -gm)
        system.add(e_s, e_d, -gds)
        system.add(e_s, e_s, gm + gds + gmbs)
        system.add(e_s, b, -gmbs)
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            cap.stamp_ac(system, state, pos, neg)

    # ------------------------------------------------------------------
    # Transient history
    # ------------------------------------------------------------------
    def init_state(self, state) -> None:
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            cap.init_state(state.v(pos) - state.v(neg))
        self._vgs_last = 0.0
        self._vds_last = 0.0

    def accept_timestep(self, state) -> None:
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            cap.accept(state, pos, neg)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def operating_point(self) -> dict:
        """Last linearisation values (ids, gm, gds, gmbs ...), as a fresh
        dict."""
        return self._op

    def drain_current(self, state) -> float:
        """Drain current at the present solution (positive into the drain for
        an NMOS in normal operation)."""
        d, g, s, b = self._idx
        pol = self.polarity
        vds = pol * (state.v(d) - state.v(s))
        if vds >= 0.0:
            vgs = pol * (state.v(g) - state.v(s))
            vbs = pol * (state.v(b) - state.v(s))
            ids, _, _, _ = self._drain_current(vgs, vds, vbs)
            return pol * ids
        vgd = pol * (state.v(g) - state.v(d))
        vbd = pol * (state.v(b) - state.v(d))
        ids, _, _, _ = self._drain_current(vgd, -vds, vbd)
        return -pol * ids


def _fetlim_vec(v_new: np.ndarray, v_old: np.ndarray, vto: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.spice.devices.limits.fetlim`, written to
    ``out``.

    Each branch of the scalar function clamps ``vt_new = v_new - vto`` on
    one side at most, and every bound is a float the scalar branch would
    return, so ``minimum``/``maximum`` select exactly its result: above by
    ``2*vt_old + 2`` in inversion and ``2`` outside it (whichever is
    larger), below by ``-0.5`` when leaving inversion and by ``vt_old/2``
    when both voltages are in inversion beyond ``vt_old > 2``.
    """
    vt_old = v_old - vto
    vt_new = v_new - vto
    np.minimum(vt_new, np.maximum(2.0 * vt_old + 2.0, 2.0), out=out)
    below = vt_new < 0.0
    leaving = below & (vt_old >= 0.0)
    if np.count_nonzero(leaving):
        np.maximum(out, -0.5, out=out, where=leaving)
    halving = (vt_old > 2.0) & ~below
    if np.count_nonzero(halving):
        np.maximum(out, 0.5 * vt_old, out=out, where=halving)
    return np.add(out, vto, out=out)


def _limvds_vec(v_new: np.ndarray, v_old: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.spice.devices.limits.limvds` for
    ``v_new >= 0`` (an evaluation-frame drain-source voltage), written to
    ``out``.

    Below ``v_old = 3.5`` the step is capped at 4 V (the scalar function's
    other lane, ``max(v_new, -0.5)``, never binds for ``v_new >= 0``);
    from 3.5 V up ``v_new`` is clipped to ``[2, 3*v_old + 2]`` (a rising
    value can only meet the upper bound, a falling one the lower).
    """
    np.minimum(v_new, 4.0, out=out)
    high = v_old >= 3.5
    if np.count_nonzero(high):
        np.minimum(v_new, 3.0 * v_old + 2.0, out=out, where=high)
        np.maximum(out, 2.0, out=out, where=high)
    return out


class MosfetBank:
    """Vectorized Newton-iteration stamp of all level-1 MOSFETs at once.

    The bank precomputes the stamp index map of every channel stamp (the
    eight matrix slots ``{d,s} x {g,d,s,b}`` and the two RHS entries per
    device, ground terminals dropped) so that each Newton iteration gathers
    the terminal voltages as one ``(4, n)`` array, evaluates the
    Shichman-Hodges equations and the SPICE limiting functions in array
    form, and fills the shared system with two vectorized
    ``system.scatter`` calls.  The arithmetic mirrors
    :meth:`Mosfet.stamp_iteration` operation for operation, so the two paths
    produce bitwise-identical stamps: constants are precomputed only where
    they are the leading operation of the scalar expression, lanes are
    merged with masked copies that keep the selected floats, and when no
    channel is reversed the drain/source exchange is skipped.

    The bank owns the Newton state of its members across solves: one
    :class:`MosfetState` holds the limiting history and the last
    linearisation as arrays, which each iteration reads and rebinds.  It
    starts from the state :meth:`Mosfet.prepare` leaves a device in (zero
    limiting history, no linearisation yet) and points every member's
    views (``_vgs_last``, ``_vds_last``, ``operating_point``) at its slot,
    so the scalar path (legacy ``build``, the AC refresh, operating-point
    reporting, ``init_state``) sees the same numbers.
    """

    def __init__(self, mosfets):
        self.mosfets = list(mosfets)
        count = len(self.mosfets)
        self.newton = MosfetState.zeros(count)
        for slot, mosfet in enumerate(self.mosfets):
            mosfet._newton = self.newton
            mosfet._slot = slot
        idx = np.array([m._idx for m in self.mosfets], dtype=int
                       ).reshape(count, 4).T
        # Terminal rows as (4, n): drain, gate, source, bulk.
        self._gather = np.maximum(idx, 0)
        grounded = idx < 0
        self._grounded = grounded if grounded.any() else None
        d, g, s, b = idx
        self.pol = np.array([m.polarity for m in self.mosfets])

        def param(key):
            return np.array([float(m.params[key]) for m in self.mosfets])

        self.beta = np.array([float(m.params["kp"]) * m.multiplier * m.w / m.l
                              for m in self.mosfets])
        self.half_beta = 0.5 * self.beta
        self.lam = param("lambda")
        self.vto = np.abs(param("vto"))
        self.gamma = param("gamma")
        self.neg_gamma = -self.gamma
        self.phi = np.maximum(param("phi"), 0.1)
        self.two_phi = 2.0 * self.phi
        self.sqrt_phi = np.sqrt(self.phi)
        self.neg_gamma_sqrt_phi = -self.gamma * self.sqrt_phi
        no_body = self.gamma == 0.0
        self._no_body = no_body if no_body.any() else None

        # Matrix scatter map: slot k of device i contributes value V[k, i]
        # at (rows[k][i], cols[k][i]), in the slot order of the scalar
        # stamp; ground entries are dropped up front.  V keeps the slots in
        # the row order of stamp_iteration's value buffer.
        slot_rows = (d, d, d, d, s, s, s, s)
        slot_cols = (g, d, s, b, g, d, s, b)
        buffer_row = (0, 2, 3, 1, 4, 6, 7, 5)
        m_rows, m_cols, m_slot, m_dev = [], [], [], []
        for slot, (rows, cols) in enumerate(zip(slot_rows, slot_cols)):
            for dev in range(count):
                if rows[dev] >= 0 and cols[dev] >= 0:
                    m_rows.append(rows[dev])
                    m_cols.append(cols[dev])
                    m_slot.append(buffer_row[slot])
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
        # Stamp value buffers, refilled by every iteration (the scatter
        # calls receive fancy-indexed copies, never the buffers).
        self._values = np.empty((8, count))
        self._values_rhs = np.empty((2, count))

    def __len__(self) -> int:
        return len(self.mosfets)

    # ------------------------------------------------------------------
    def _threshold(self, vbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`Mosfet._threshold` (von and dvon/dvbs).

        ``von`` has the same form in both bias lanes once the square-root
        term is selected, so only that term and ``dvon`` are per lane.
        """
        forward = vbs > 0.0
        # The clamps keep each lane's formula free of sqrt/division warnings
        # on the other lane's elements; the selected values are untouched.
        sqrt_term = np.sqrt(np.maximum(self.phi - vbs, 1e-300))
        denom = 1.0 + np.maximum(vbs, 0.0) / self.two_phi
        np.copyto(sqrt_term, self.sqrt_phi / denom, where=forward)
        von = self.vto + self.gamma * (sqrt_term - self.sqrt_phi)
        dvon = self.neg_gamma / (2.0 * sqrt_term)
        np.copyto(dvon, self.neg_gamma_sqrt_phi
                  / (self.two_phi * denom * denom), where=forward)
        if self._no_body is not None:
            von = np.where(self._no_body, self.vto, von)
            dvon = np.where(self._no_body, 0.0, dvon)
        return von, dvon

    def _drain_current(self, vgs, vds, von, dvon):
        """Vectorized :meth:`Mosfet._drain_current` for the limited
        evaluation-frame voltages.

        Each quantity starts as its triode value and takes the saturation
        value on saturated lanes (then zero on cut-off lanes) in place.
        """
        beta = self.beta
        lam = self.lam
        vgst = vgs - von
        clm = 1.0 + lam * vds
        saturated = vgst <= vds
        # 0.5*beta*vgst*vgst and beta*(vgst - vds/2)*vds, each shared by
        # ids and gds of its region.
        half_square = self.half_beta * vgst * vgst
        triode = beta * (vgst - 0.5 * vds) * vds
        ids = triode * clm
        np.copyto(ids, half_square * clm, where=saturated)
        gm = beta * vds * clm
        np.copyto(gm, beta * vgst * clm, where=saturated)
        gds = beta * (vgst - vds) * clm + triode * lam
        np.copyto(gds, half_square * lam, where=saturated)
        cutoff = vgst <= 0.0
        for values in (ids, gm, gds):
            np.copyto(values, 0.0, where=cutoff)
        gmbs = -gm * dvon
        if self._no_body is not None:
            # -0.0 * 0.0 is -0.0; the scalar model returns gmbs = 0.0 in
            # cutoff.
            np.copyto(gmbs, 0.0, where=cutoff)
        return ids, gm, gds, gmbs

    def stamp_iteration(self, system, state) -> None:
        """Stamp every channel linearisation around ``state.x`` at once."""
        newton = self.newton
        voltages = state.x[self._gather]
        if self._grounded is not None:
            np.copyto(voltages, 0.0, where=self._grounded)
        vd, vg, vs, vb = voltages
        pol = self.pol
        vds = pol * (vd - vs)
        reverse = vds < 0.0
        flipped = np.count_nonzero(reverse)
        # Evaluation-frame voltages as requested (row 0: vgs, row 1: vds);
        # reversed channels exchange the drain and source roles.
        requested = np.empty((2, len(pol)))
        requested[1] = vds
        if flipped:
            v_ref = vs.copy()
            np.copyto(v_ref, vd, where=reverse)
            np.copyto(requested[1], -vds, where=reverse)
        else:
            v_ref = vs
        np.multiply(pol, vg - v_ref, out=requested[0])
        vbs_f = pol * (vb - v_ref)

        # Newton step limiting on the evaluation-frame voltages.
        von, dvon = self._threshold(vbs_f)
        limited = np.empty_like(requested)
        vgs_f = _fetlim_vec(requested[0], newton.vgs_last, von, limited[0])
        vds_f = _limvds_vec(requested[1], newton.vds_last, limited[1])
        if np.count_nonzero(np.abs(limited - requested)
                            > 1e-6 + 1e-3 * np.abs(requested)):
            state.limited = True
        newton.vgs_last = vgs_f
        newton.vds_last = vds_f

        ids, gm, gds, gmbs = self._drain_current(vgs_f, vds_f, von, dvon)
        newton.op = (ids, gm, gds, gmbs, vgs_f, vds_f, vbs_f, reverse)

        # Equivalent current of the linearised characteristic (evaluation
        # frame, flowing from the effective drain to the effective source).
        ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs_f
        gds_tot = gds + state.gmin
        total = gm + gds_tot + gmbs
        # Slot values match Mosfet.stamp_iteration.  Buffer rows are the
        # slots (d,g),(d,b),(d,d),(d,s), then the same four of the s row,
        # which is the negated d row.  A reversed channel's d row is the
        # negated forward d row with the (d,d) and (d,s) slots exchanged.
        values = self._values
        values[0] = gm
        values[1] = gmbs
        values[2] = gds_tot
        np.negative(total, out=values[3])
        if flipped:
            swapped = np.empty((4, len(pol)))
            np.negative(values[:2], out=swapped[:2])
            np.negative(values[3:1:-1], out=swapped[2:])
            np.copyto(values[:4], swapped, where=reverse)
        np.negative(values[:4], out=values[4:])
        system.scatter(self._m_index[0], self._m_index[1],
                       values.reshape(-1)[self._m_flat])
        # RHS: current pol*ieq extracted at the effective drain, injected at
        # the effective source.
        i_rhs = pol * ieq
        values_rhs = self._values_rhs
        np.negative(i_rhs, out=values_rhs[0])
        if flipped:
            np.copyto(values_rhs[0], i_rhs, where=reverse)
        np.negative(values_rhs[0], out=values_rhs[1])
        system.scatter_rhs(self._r_rows, values_rhs.reshape(-1)[self._r_flat])


Mosfet.ITERATION_BANK = MosfetBank
