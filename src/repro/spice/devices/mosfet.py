"""Level-1 (Shichman-Hodges) MOSFET model.

The model covers cutoff / linear / saturation operation, body effect,
channel-length modulation and fixed terminal capacitances (gate overlap,
gate oxide and junction capacitances).  It is the workhorse device for the
VCO test case of the paper.
"""

from __future__ import annotations

import numpy as np

from ...errors import AnalysisError, ModelError
from ...units import EPS0, EPS_SIO2, parse_value
from . import lane_kernel
from .base import Device, stamp_conductance
from .lane_kernel import LANE_CONSTANTS, buffer

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

#: Terminal capacitances by name, as (pos, neg) positions in the device's
#: (drain, gate, source, bulk) terminal list.
CAP_TERMINALS = {"gs": (1, 2), "gd": (1, 0), "gb": (1, 3),
                 "db": (0, 3), "sb": (2, 3)}


class MosfetState:
    """Newton state of a group of MOSFETs, one array entry per device.

    ``vgs_last``/``vds_last`` are the limiting history and ``op`` is the
    last linearisation as arrays in :data:`OP_KEYS` order.  A
    :class:`MosfetBank` owns one holder for all its members and rebinds
    fresh arrays on every Newton iteration, never writing one in place (the
    bank shares the limited voltages between ``op`` and the limiting
    history, and a variant's holder in a lockstep round holds views of the
    fused arrays).  Each :class:`Mosfet` reads its slot through
    ``(holder, slot)``.  The holder references no device: banks and
    devices never form a reference cycle.
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

    The device holds the model and geometry; the builder's
    :class:`MosfetBank` evaluates the large-signal model and owns the
    Newton state, and the builder's companion bank stamps the terminal
    capacitances (:meth:`companion_entries`).
    """

    PREFIX = "M"
    NUM_TERMINALS = 4

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
        # The Newton state holder of the MosfetBank that adopted the
        # device and the device's slot in it (None: no bank adopted it).
        self._newton: MosfetState | None = None
        self._slot = 0
        #: Terminal capacitances [F] by CAP_TERMINALS name.
        self._caps: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def clone(self) -> "Mosfet":
        """A copy with its own model parameters, adopted by no bank;
        :meth:`prepare` rebuilds the capacitances."""
        twin = super().clone()
        twin.params = dict(self.params)
        twin._newton = None
        twin._slot = 0
        return twin

    def is_nonlinear(self) -> bool:
        return True

    def prepare(self, circuit, merged: dict | None = None) -> None:
        """Resolve the model card; ``merged`` (model name to the card
        overlaid on :data:`DEFAULT_MOS_PARAMS`) lets the devices of one
        card share one parameter mapping, which is never written."""
        model = circuit.model(self.model_name)
        if model.kind not in ("nmos", "pmos"):
            raise ModelError(
                f"device {self.name!r}: model {self.model_name!r} is of kind "
                f"{model.kind!r}, expected nmos/pmos")
        self.polarity = 1.0 if model.kind == "nmos" else -1.0
        if merged is None:
            merged = {}
        if model.name not in merged:
            merged[model.name] = {**DEFAULT_MOS_PARAMS, **model.params}
        self.params = merged[model.name]
        # The builder's MosfetBank adopts the device right after.
        self._newton = None
        self._slot = 0
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
        self._caps = {"gs": cgs * scale, "gd": cgd * scale,
                      "gb": cgb * scale, "db": cdb * scale,
                      "sb": csb * scale}

    def _cap_nodes(self, key: str) -> tuple[int, int]:
        pos, neg = CAP_TERMINALS[key]
        return self._idx[pos], self._idx[neg]

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def companion_entries(self):
        return [(cap, *self._cap_nodes(key), None)
                for key, cap in self._caps.items()]

    def stamp_ac(self, system, state) -> None:
        d, g, s, b = self._idx
        op = self.operating_point
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
            if cap > 0.0:
                pos, neg = self._cap_nodes(key)
                stamp_conductance(system, pos, neg, 1j * state.omega * cap)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def operating_point(self) -> dict:
        """Last linearisation values (ids, gm, gds, gmbs ...) of the
        device's slot in its bank, as a fresh dict."""
        newton = self._newton
        if newton is None:
            raise AnalysisError(
                f"MOSFET {self.name!r} has no operating point: no analysis "
                "has linearised it")
        slot = self._slot
        return {key: values[slot].item()
                for key, values in zip(OP_KEYS, newton.op)}


#: Operands of the bank kernels as 0-d arrays: numpy 2 wraps a Python
#: float operand anew on every call, a 0-d float64 array it takes as is.
#: The values, and so every result, are the same floats.
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_THREE = np.array(3.0)
_FOUR = np.array(4.0)
_LIMIT_LOW = np.array(-0.5)
_LIMIT_HIGH = np.array(3.5)
_TINY = np.array(1e-300)
_LIMITED_ABS = np.array(1e-6)
_LIMITED_REL = np.array(1e-3)


def _fetlim_vec(v_new: np.ndarray, v_old: np.ndarray, vto: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """SPICE ``fetlim``: limit the gate-source voltage update of every
    MOSFET, written to ``out``.

    With ``vt = v - vto``, the step ``vt_new`` is clamped on one side at
    most: above by ``2*vt_old + 2`` in inversion and ``2`` outside it
    (whichever is larger; entering inversion goes no further than a
    little above ``vto``), below by ``-0.5`` when leaving inversion and by
    ``vt_old/2`` when both voltages are in inversion beyond
    ``vt_old > 2``.  Every bound is the float the piecewise definition
    returns, so ``minimum``/``maximum`` select exactly its result.
    """
    vt_old = v_old - vto
    vt_new = v_new - vto
    np.minimum(vt_new, np.maximum(_TWO * vt_old + _TWO, _TWO), out=out)
    below = vt_new < _ZERO
    leaving = below & (vt_old >= _ZERO)
    if np.count_nonzero(leaving):
        np.maximum(out, _LIMIT_LOW, out=out, where=leaving)
    halving = (vt_old > _TWO) & ~below
    if np.count_nonzero(halving):
        np.maximum(out, _HALF * vt_old, out=out, where=halving)
    return np.add(out, vto, out=out)


def _limvds_vec(v_new: np.ndarray, v_old: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """SPICE ``limvds``: limit the drain-source voltage update of every
    MOSFET for ``v_new >= 0`` (an evaluation-frame drain-source voltage),
    written to ``out``.

    Below ``v_old = 3.5`` the step is capped at 4 V (the falling lane of
    the definition, ``max(v_new, -0.5)``, never binds for
    ``v_new >= 0``); from 3.5 V up ``v_new`` is clipped to
    ``[2, 3*v_old + 2]`` (a rising value can only meet the upper bound, a
    falling one the lower).
    """
    np.minimum(v_new, _FOUR, out=out)
    high = v_old >= _LIMIT_HIGH
    if np.count_nonzero(high):
        np.minimum(v_new, _THREE * v_old + _TWO, out=out, where=high)
        np.maximum(out, _TWO, out=out, where=high)
    return out


#: Buffer row of each matrix slot of the channel stamp, slots in the order
#: (d,g),(d,d),(d,s),(d,b),(s,g),(s,d),(s,s),(s,b) (see stamp_iteration).
_BUFFER_ROW = np.array([0, 2, 3, 1, 4, 6, 7, 5])


class MosfetBank:
    """Vectorized Newton-iteration stamp of all level-1 MOSFETs at once.

    The bank precomputes the stamp index map of every channel stamp (the
    eight matrix slots ``{d,s} x {g,d,s,b}`` and the two RHS entries per
    device, ground terminals dropped) so that each Newton iteration gathers
    the terminal voltages as one ``(4, n)`` array, evaluates the
    Shichman-Hodges equations and the SPICE limiting functions in array
    form, and fills the shared system with two vectorized
    ``system.scatter`` calls.  Every lane computes the floats of the
    per-device model, kept operation for operation in
    ``tests/mosfet_oracle.py``, which pins the bank bit for bit: constants
    are precomputed only where they are the leading operation of the
    per-device expression, lanes are merged with masked copies that keep
    the selected floats, and the drain/source exchange and the
    forward-bias lane are skipped when no lane needs them.

    That numpy lane code (:meth:`_stamp_lanes`) is the reference and the
    fallback: where the compiled lane kernel of
    :mod:`~repro.spice.devices.lane_kernel` loads, the bank binds its
    constant arrays to it once and every iteration is one C call that
    computes the same floats, written straight in scatter order.

    The bank owns the Newton state of its members across solves: one
    :class:`MosfetState` holds the limiting history and the last
    linearisation as arrays, which each iteration reads and rebinds and
    :meth:`init_state` zeros.  It points every member at its slot, where
    :attr:`Mosfet.operating_point` and the AC stamp read the last
    linearisation.

    :class:`FusedMosfetBanks` builds one bank over the banks of several
    circuit variants, evaluated once per lockstep Newton round.
    """

    def __init__(self, mosfets):
        self.mosfets = list(mosfets)
        count = len(self.mosfets)
        self.newton = MosfetState.zeros(count)
        for slot, mosfet in enumerate(self.mosfets):
            mosfet._newton = self.newton
            mosfet._slot = slot
        # Terminal rows as (4, n): drain, gate, source, bulk (-1: ground).
        idx = np.array([m._idx for m in self.mosfets], dtype=int
                       ).reshape(count, 4).T
        # Gathered in evaluation order: drain, gate, bulk, source.
        terminals = idx[[0, 1, 3, 2]]
        self._gather = np.maximum(terminals, 0)
        grounded = terminals < 0
        self._grounded = grounded if grounded.any() else None
        pol, beta, lam, vto, gamma, phi = np.array(
            [(m.polarity, float(m.params["kp"]) * m.multiplier * m.w / m.l,
              float(m.params["lambda"]), float(m.params["vto"]),
              float(m.params["gamma"]), float(m.params["phi"]))
             for m in self.mosfets], dtype=float).reshape(count, 6).T.copy()
        self.pol = pol
        self.beta = beta
        self.half_beta = 0.5 * self.beta
        self.lam = lam
        self.vto = np.abs(vto)
        self.gamma = gamma
        self.neg_gamma = -self.gamma
        self.phi = np.maximum(phi, 0.1)
        self.two_phi = 2.0 * self.phi
        self.sqrt_phi = np.sqrt(self.phi)
        self.neg_gamma_sqrt_phi = -self.gamma * self.sqrt_phi
        no_body = self.gamma == 0.0
        self._no_body = no_body if no_body.any() else None
        # -0.0 * dvon is +0.0 in cut-off whenever gamma > 0 (dvon < 0), so
        # only a bank with some other gamma needs the model's
        # gmbs = 0.0 restored there.  The fix-up is then a no-op on the
        # gamma > 0 lanes, which is what lets fused banks apply it to all.
        self._zero_cutoff_gmbs = not bool((self.gamma > 0.0).all())

        # Matrix scatter map: slot k of device i contributes value V[k, i]
        # at (rows[k][i], cols[k][i]), slot-major in the slot order of the
        # channel stamp (np.nonzero walks the (slot x device) mask in that
        # order); ground entries are dropped up front.  V keeps the slots
        # in the row order of stamp_iteration's value buffer.
        slot_rows = idx[[0, 0, 0, 0, 2, 2, 2, 2]]
        slot_cols = idx[[1, 0, 2, 3, 1, 0, 2, 3]]
        m_slot, m_dev = np.nonzero((slot_rows >= 0) & (slot_cols >= 0))
        self._m_index = (slot_rows[m_slot, m_dev], slot_cols[m_slot, m_dev])
        self._m_flat = _BUFFER_ROW[m_slot] * count + m_dev
        # RHS map: the drain row, then the source row.
        rhs_rows = idx[[0, 2]]
        present = rhs_rows >= 0
        self._r_rows = rhs_rows[present]
        self._r_flat = np.flatnonzero(present)
        # Stamp value buffers, refilled by every iteration (the scatter
        # calls receive fancy-indexed copies, never the buffers).
        self._values = np.empty((8, count))
        self._values_rhs = np.empty((2, count))
        self._bind_kernel()

    def __len__(self) -> int:
        return len(self.mosfets)

    def init_state(self) -> None:
        """Zero the limiting history: the start of a transient, after the
        operating point (the last linearisation stays for reporting)."""
        zeros = np.zeros(len(self.pol))
        self.newton.vgs_last = zeros
        self.newton.vds_last = zeros

    # ------------------------------------------------------------------
    def _threshold(self, vbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Threshold voltage with body effect: ``von`` and ``dvon/dvbs``.

        ``von`` has the same form in both bias lanes once the square-root
        term is selected, so only that term and ``dvon`` are per lane.
        """
        # No bulk is forward-biased in 27 % of the iterations of the
        # nominal VCO transients at 3.0, 4.0 and 4.5 V (2303 of 8547),
        # the discharged start included.
        forward = vbs > _ZERO
        any_forward = np.count_nonzero(forward)
        if any_forward:
            # The clamps keep each lane's formula free of sqrt/division
            # warnings on the other lane's elements; the selected values
            # are untouched.
            sqrt_term = np.sqrt(np.maximum(self.phi - vbs, _TINY))
            denom = _ONE + np.maximum(vbs, _ZERO) / self.two_phi
            np.copyto(sqrt_term, self.sqrt_phi / denom, where=forward)
        else:
            # phi - vbs >= phi >= 0.1 on every lane: the clamp is a no-op.
            sqrt_term = np.sqrt(self.phi - vbs)
        von = self.vto + self.gamma * (sqrt_term - self.sqrt_phi)
        dvon = self.neg_gamma / (_TWO * sqrt_term)
        if any_forward:
            np.copyto(dvon, self.neg_gamma_sqrt_phi
                      / (self.two_phi * denom * denom), where=forward)
        if self._no_body is not None:
            von = np.where(self._no_body, self.vto, von)
            dvon = np.where(self._no_body, _ZERO, dvon)
        return von, dvon

    def _drain_current(self, vgs, vds, von, dvon):
        """``(ids, gm, gds, gmbs)`` for the limited evaluation-frame
        voltages (``vds >= 0``): cut-off, saturation or triode.

        Each quantity starts as its triode value and takes the saturation
        value on saturated lanes (then zero on cut-off lanes) in place.
        """
        beta = self.beta
        lam = self.lam
        vgst = vgs - von
        clm = _ONE + lam * vds
        saturated = vgst <= vds
        # 0.5*beta*vgst*vgst and beta*(vgst - vds/2)*vds, each shared by
        # ids and gds of its region.
        half_square = self.half_beta * vgst * vgst
        triode = beta * (vgst - _HALF * vds) * vds
        ids = triode * clm
        np.copyto(ids, half_square * clm, where=saturated)
        gm = beta * vds * clm
        np.copyto(gm, beta * vgst * clm, where=saturated)
        gds = beta * (vgst - vds) * clm + triode * lam
        np.copyto(gds, half_square * lam, where=saturated)
        # Some channel is cut off in nearly every iteration (all but 11 of
        # 8547 in the nominal VCO transients at 3.0, 4.0 and 4.5 V), so
        # the fix-up runs unconditionally.
        cutoff = vgst <= _ZERO
        for values in (ids, gm, gds):
            np.copyto(values, _ZERO, where=cutoff)
        gmbs = -gm * dvon
        if self._zero_cutoff_gmbs:
            # -0.0 * dvon is -0.0 for dvon >= 0; the model has
            # gmbs = 0.0 in cutoff.
            np.copyto(gmbs, _ZERO, where=cutoff)
        return ids, gm, gds, gmbs

    def _bind_kernel(self) -> None:
        """Bind the compiled lane kernel to the bank's constant arrays, once
        per bank (``_kernel`` is ``None`` where the numpy lanes run)."""
        self._kernel = lane_kernel.load()
        if self._kernel is None:
            return
        count = len(self.pol)
        gather = (self._gather if self._grounded is None
                  else np.where(self._grounded, -1, self._gather))
        # The kernel's output holds the linearisation (7 rows of count),
        # then the matrix values in scatter order, then the RHS values.
        # stamp_pos gives the output index of every value of the numpy
        # lanes' buffer rows (8 matrix rows, then the 2 RHS rows).
        matrix_at = 7 * count
        rhs_at = matrix_at + len(self._m_flat)
        end = rhs_at + len(self._r_flat)
        stamp_pos = np.full((10, count), -1, dtype=np.int64)
        stamp_pos[:8].reshape(-1)[self._m_flat] = np.arange(matrix_at, rhs_at)
        stamp_pos[8:].reshape(-1)[self._r_flat] = np.arange(rhs_at, end)
        gather = np.ascontiguousarray(gather, dtype=np.int64)
        constants = [np.ascontiguousarray(getattr(self, name),
                                          dtype=np.float64)
                     for name in LANE_CONSTANTS]
        self._lane_arrays = (gather, stamp_pos, constants)
        self._lanes = lane_kernel.bind(count, self._zero_cutoff_gmbs,
                                       *self._lane_arrays)
        self._out_bounds = (matrix_at, rhs_at, end)

    @property
    def kernel_name(self) -> str:
        """``"compiled"`` if the bank stamps through the compiled lane
        kernel, ``"numpy"`` if through the numpy lanes."""
        return "numpy" if self._kernel is None else "compiled"

    def stamp_iteration(self, system, state) -> None:
        """Stamp every channel linearisation around ``state.x`` at once,
        through the compiled lane kernel where it is available and the
        numpy lanes (:meth:`_stamp_lanes`) elsewhere: both compute the
        same floats.

        ``state`` provides ``x``, ``gmin`` (a float, or one per lane) and
        ``note_limiting``, which takes the per-lane limiting mask.
        """
        if self._kernel is None:
            self._stamp_lanes(system, state)
            return
        newton = self.newton
        count = len(self.pol)
        matrix_at, rhs_at, end = self._out_bounds
        out = np.empty(end)
        flags = np.empty((2, count), dtype=bool)
        x = np.ascontiguousarray(state.x, dtype=np.float64)
        gmin, gmin_lanes = state.gmin, None
        if isinstance(gmin, np.ndarray):
            gmin, gmin_lanes = 0.0, buffer(gmin)
        self._kernel(self._lanes, buffer(x), buffer(newton.vgs_last),
                     buffer(newton.vds_last), gmin, gmin_lanes, buffer(out),
                     buffer(flags))
        state.note_limiting(flags[1])
        op = out[:matrix_at].reshape(7, count)
        newton.vgs_last = op[4]
        newton.vds_last = op[5]
        newton.op = (*op, flags[0])
        system.scatter(self._m_index[0], self._m_index[1],
                       out[matrix_at:rhs_at])
        system.scatter_rhs(self._r_rows, out[rhs_at:])

    def _stamp_lanes(self, system, state) -> None:
        """:meth:`stamp_iteration` in numpy lane code."""
        newton = self.newton
        voltages = state.x[self._gather]
        if self._grounded is not None:
            np.copyto(voltages, _ZERO, where=self._grounded)
        pol = self.pol
        # Evaluation-frame voltages vds, vgs, vbs (rows of frame) against
        # the source; reversed channels exchange the drain and source
        # roles: vgs and vbs against the drain, vds negated.
        frame = pol * (voltages[:3] - voltages[3])
        vds = frame[0]
        reverse = vds < _ZERO
        flipped = np.count_nonzero(reverse)
        if flipped:
            np.copyto(frame[1:], pol * (voltages[1:3] - voltages[0]),
                      where=reverse)
            np.negative(vds, out=vds, where=reverse)
        # As requested (row 0: vds, row 1: vgs) and as limited.
        requested = frame[:2]
        vbs_f = frame[2]

        # Newton step limiting on the evaluation-frame voltages.
        von, dvon = self._threshold(vbs_f)
        limited = np.empty_like(requested)
        vds_f = _limvds_vec(requested[0], newton.vds_last, limited[0])
        vgs_f = _fetlim_vec(requested[1], newton.vgs_last, von, limited[1])
        state.note_limiting(
            (np.abs(limited - requested)
             > _LIMITED_ABS + _LIMITED_REL * np.abs(requested)).any(axis=0))
        newton.vgs_last = vgs_f
        newton.vds_last = vds_f

        ids, gm, gds, gmbs = self._drain_current(vgs_f, vds_f, von, dvon)
        newton.op = (ids, gm, gds, gmbs, vgs_f, vds_f, vbs_f, reverse)

        # Equivalent current of the linearised characteristic (evaluation
        # frame, flowing from the effective drain to the effective source).
        ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs_f
        gds_tot = gds + state.gmin
        total = gm + gds_tot + gmbs
        # Slot values in the order above.  Buffer rows are the
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
                       values.take(self._m_flat))
        # RHS: current pol*ieq extracted at the effective drain, injected at
        # the effective source.
        i_rhs = pol * ieq
        values_rhs = self._values_rhs
        np.negative(i_rhs, out=values_rhs[0])
        if flipped:
            np.copyto(values_rhs[0], i_rhs, where=reverse)
        np.negative(values_rhs[0], out=values_rhs[1])
        system.scatter_rhs(self._r_rows, values_rhs.take(self._r_flat))


class FusedMosfetBanks:
    """The :class:`MosfetBank` stamps of several circuit variants from one
    evaluation (a lockstep Newton round of the batched transient).

    Variant ``j`` has the bank ``banks[j]``, the simulation state
    ``states[j]`` and the member ``j`` of ``system``, a
    :class:`~repro.spice.analysis.backends.StackedMNASystem`.
    :attr:`bank` is a :class:`MosfetBank` over the concatenated members of
    ``banks``: it reads variant ``j``'s terminal voltages from the
    concatenated iterates at variant ``j``'s offset, and its scatter maps
    are the variants' own maps one after the other, shifted to variant
    ``j``'s rows of the stacked system.  Every kernel operation is
    elementwise (lane selections only ever touch the lanes they select),
    so each variant gets the floats its own bank would compute, stamped in
    its own bank's slot order.

    During :meth:`stamp_iteration` this object is the fused bank's state:
    :attr:`x` holds the concatenated iterates, :attr:`gmin` the variants'
    gmin, and :meth:`note_limiting` sets ``limited`` per variant.  Each
    variant's :class:`MosfetState` is loaded before the evaluation and
    afterwards holds views of the fresh fused arrays, which is why no bank
    writes a state array in place (see :class:`MosfetState`).  The object
    references the variants' state holders and simulation states, never a
    device, so no reference cycle forms.
    """

    def __init__(self, banks, system, states):
        banks = list(banks)
        self.system = system
        self._holders = [bank.newton for bank in banks]
        self._states = list(states)
        counts = [len(bank.pol) for bank in banks]
        total = sum(counts)
        self._counts = counts
        self._bounds = _split_bounds(counts)
        starts = [start for start, _ in self._bounds]
        self._starts = np.asarray(starts)
        size = system.size

        fused = MosfetBank.__new__(MosfetBank)
        fused.mosfets = []
        fused.newton = MosfetState.zeros(total)
        for name in LANE_CONSTANTS:
            setattr(fused, name,
                    np.concatenate([getattr(bank, name) for bank in banks]))
        # Variant j's unknowns sit at j * size of the concatenated
        # iterates, and its rows at j * size of the stacked system.
        fused._gather = np.concatenate(
            [bank._gather + j * size for j, bank in enumerate(banks)],
            axis=1)
        fused._grounded = _concatenate_masks(
            [bank._grounded for bank in banks],
            [(4, count) for count in counts])
        fused._no_body = _concatenate_masks(
            [bank._no_body for bank in banks], counts)
        fused._zero_cutoff_gmbs = any(bank._zero_cutoff_gmbs
                                      for bank in banks)

        def flat(member_flat, count, start):
            # A variant's buffer entry (row, device) at row * count + device
            # sits at row * total + start + device in the fused buffer.
            rows, devices = np.divmod(member_flat, count)
            return rows * total + start + devices

        fused._m_index = (
            np.concatenate([bank._m_index[0] + j * size
                            for j, bank in enumerate(banks)]),
            np.concatenate([bank._m_index[1] for bank in banks]))
        fused._m_flat = np.concatenate(
            [flat(bank._m_flat, count, start)
             for bank, count, start in zip(banks, counts, starts)])
        fused._r_rows = np.concatenate(
            [bank._r_rows + j * size for j, bank in enumerate(banks)])
        fused._r_flat = np.concatenate(
            [flat(bank._r_flat, count, start)
             for bank, count, start in zip(banks, counts, starts)])
        fused._values = np.empty((8, total))
        fused._values_rhs = np.empty((2, total))
        fused._bind_kernel()
        #: The fused :class:`MosfetBank`.
        self.bank = fused
        #: Concatenated iterates of the variants (set per round).
        self.x: np.ndarray | None = None
        #: gmin of the variants: one float, or one per fused MOSFET.
        self.gmin = 0.0

    def stamp_iteration(self) -> None:
        """Stamp every variant's MOSFET linearisations around its own
        ``state.x`` into its member of the stacked system, through one
        evaluation."""
        states = self._states
        holders = self._holders
        self.x = np.concatenate([state.x for state in states])
        gmins = [state.gmin for state in states]
        if gmins.count(gmins[0]) == len(gmins):
            self.gmin = gmins[0]
        else:
            self.gmin = np.repeat(gmins, self._counts)
        newton = self.bank.newton
        newton.vgs_last = np.concatenate(
            [holder.vgs_last for holder in holders])
        newton.vds_last = np.concatenate(
            [holder.vds_last for holder in holders])
        self.bank.stamp_iteration(self.system, self)
        op = newton.op
        for holder, (start, stop) in zip(holders, self._bounds):
            holder.vgs_last = newton.vgs_last[start:stop]
            holder.vds_last = newton.vds_last[start:stop]
            holder.op = tuple([values[start:stop] for values in op])

    def note_limiting(self, exceeded: np.ndarray) -> None:
        """Set ``limited`` on each variant with a limited MOSFET
        (``exceeded``: the per-lane limiting mask)."""
        if not np.count_nonzero(exceeded):
            return
        hits = np.logical_or.reduceat(exceeded, self._starts)
        for state, hit in zip(self._states, hits):
            if hit:
                state.limited = True


def _concatenate_masks(masks, shapes):
    """Concatenate optional boolean lane masks (``None``: all false) along
    the device axis; ``None`` when every mask is."""
    if all(mask is None for mask in masks):
        return None
    return np.concatenate([np.zeros(shape, dtype=bool) if mask is None
                           else mask for mask, shape in zip(masks, shapes)],
                          axis=-1)


def _split_bounds(lengths) -> list:
    """``(start, stop)`` of consecutive chunks of ``lengths``."""
    stops = np.cumsum(lengths).tolist()
    return list(zip([0] + stops[:-1], stops))

