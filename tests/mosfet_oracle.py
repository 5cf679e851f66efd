"""Per-device reference model of the level-1 MOSFET, one scalar at a time.

:class:`~repro.spice.devices.mosfet.MosfetBank` evaluates every MOSFET of
a circuit at once with masked array operations.  This module keeps the
same equations written one device and one branch at a time, with none of
the bank's machinery (no lane masks, no precomputed constants, no
scatter maps): the SPICE limiting functions :func:`fetlim` and
:func:`limvds`, the threshold and drain current of :class:`OracleMosfet`
and its Newton-iteration stamp.  Every float the bank computes must be
the float computed here, which ``tests/test_mosfet_bank.py`` checks stamp
for stamp.

:func:`build` assembles a whole large-signal system from scratch over
this model, device by device, as a reference for the builder's
constant/iteration split (``tests/test_kernel_fastpath.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.spice import Capacitor, Diode, Mosfet
from repro.spice.analysis.backends import MNASystem
from repro.spice.devices.base import stamp_conductance, stamp_current_source


def fetlim(v_new: float, v_old: float, vto: float) -> float:
    """Limit the gate-source voltage update of a MOSFET."""
    vt_old = v_old - vto
    vt_new = v_new - vto
    if vt_old >= 0.0:
        if vt_new >= 0.0:
            # Both in (or at edge of) inversion: limit the step size.
            if vt_new > 2.0 * vt_old + 2.0:
                vt_new = 2.0 * vt_old + 2.0
            elif vt_old > 2.0 and vt_new < 0.5 * vt_old:
                vt_new = 0.5 * vt_old
        else:
            # Leaving inversion: do not jump deeper than slightly below vto.
            vt_new = max(vt_new, -0.5)
    else:
        if vt_new >= 0.0:
            # Entering inversion: do not jump further than a little above vto.
            vt_new = min(vt_new, 2.0)
        # Both below threshold: no limiting required.
    return vt_new + vto


def limvds(v_new: float, v_old: float) -> float:
    """Limit the drain-source voltage update of a MOSFET."""
    if v_old >= 3.5:
        if v_new > v_old:
            v_new = min(v_new, 3.0 * v_old + 2.0)
        elif v_new < 3.5:
            v_new = max(v_new, 2.0)
    else:
        if v_new > v_old:
            v_new = min(v_new, 4.0)
        else:
            v_new = max(v_new, -0.5)
    return v_new


class OracleMosfet:
    """One prepared and bound :class:`Mosfet` evaluated on its own, with
    its own Newton history: the limiting history ``vgs_last``/``vds_last``
    and the last linearisation ``op`` (a dict in ``OP_KEYS`` order)."""

    def __init__(self, device: Mosfet, vgs_last: float = 0.0,
                 vds_last: float = 0.0):
        self.device = device
        self.vgs_last = vgs_last
        self.vds_last = vds_last
        self.op: dict | None = None

    def threshold(self, vbs: float) -> tuple[float, float]:
        """Return (von, dvon_dvbs) including body effect."""
        p = self.device.params
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

    def drain_current(self, vgs: float, vds: float, vbs: float,
                      threshold: tuple[float, float] | None = None
                      ) -> tuple[float, float, float, float]:
        """Return (ids, gm, gds, gmbs) for vds >= 0 in the normalised frame.

        ``threshold`` short-circuits the body-effect evaluation when the
        caller already computed ``(von, dvon)`` for this ``vbs``.
        """
        device = self.device
        p = device.params
        beta = float(p["kp"]) * device.multiplier * device.w / device.l
        lam = float(p["lambda"])
        von, dvon = threshold if threshold is not None else self.threshold(vbs)
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

    def stamp_iteration(self, system, state) -> None:
        """Channel linearisation around ``state.x``, limiting included."""
        d, g, s, b = self.device._idx
        pol = self.device.polarity
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
        threshold = self.threshold(vbs_f)
        vgs_requested, vds_requested = vgs_f, vds_f
        vgs_f = fetlim(vgs_f, self.vgs_last, threshold[0])
        vds_f = limvds(vds_f, self.vds_last)
        if (abs(vgs_f - vgs_requested) > 1e-6 + 1e-3 * abs(vgs_requested)
                or abs(vds_f - vds_requested) > 1e-6 + 1e-3 * abs(vds_requested)):
            state.limited = True
        self.vgs_last = vgs_f
        self.vds_last = vds_f

        ids, gm, gds, gmbs = self.drain_current(vgs_f, vds_f, vbs_f,
                                                threshold=threshold)
        self.op = {"ids": ids, "gm": gm, "gds": gds, "gmbs": gmbs,
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


def stamp_companion(system, state, capacitance: float, pos: int, neg: int,
                    v_prev: float, i_prev: float) -> None:
    """Companion model of one capacitance from its history: conductance
    ``integ_c0 * C`` and the equivalent current, from the predictor under
    a BDF corrector or from ``v_prev``/``i_prev`` otherwise."""
    if capacitance <= 0.0:
        return
    geq = state.integ_c0 * capacitance
    if state.integ_pred_x is not None:
        v_pred = state.pred(pos) - state.pred(neg)
        dv_pred = state.pred_d(pos) - state.pred_d(neg)
        ieq = capacitance * dv_pred - geq * v_pred
    else:
        ieq = -(geq * v_prev + state.integ_c1 * i_prev)
    stamp_conductance(system, pos, neg, geq)
    # Branch current i = geq*v + ieq flows from pos to neg.
    stamp_current_source(system, pos, neg, ieq)


def build(builder, state) -> MNASystem:
    """The large-signal system at ``state``, assembled from scratch device
    by device: each MOSFET through :class:`OracleMosfet` from the limiting
    history of the builder's MOSFET bank, each capacitance (in transient)
    from the companion history of the builder's capacitor bank, every
    other device through its own stamp, then gmin on the node diagonal.

    The banks' histories are read, never written; diodes update their own
    limiting history as their stamp does.
    """
    system = MNASystem(builder.size)
    state.limited = False
    mosfets = builder.mosfet_bank
    caps = builder.cap_bank
    mosfet_slot = cap_slot = 0
    for device in builder.devices:
        if isinstance(device, Mosfet):
            OracleMosfet(device, float(mosfets.newton.vgs_last[mosfet_slot]),
                         float(mosfets.newton.vds_last[mosfet_slot])
                         ).stamp_iteration(system, state)
            mosfet_slot += 1
        elif isinstance(device, Diode):
            device.stamp_iteration(system, state)
        elif not isinstance(device, Capacitor):
            device.stamp(system, state)
        for capacitance, pos, neg, _ in device.companion_entries():
            if capacitance <= 0.0:
                continue
            if state.mode == "tran":
                stamp_companion(system, state, capacitance, pos, neg,
                                float(caps.v_prev[cap_slot]),
                                float(caps.i_prev[cap_slot]))
            cap_slot += 1
    system.add_diagonal(np.arange(builder.num_nodes), state.gmin)
    return system
