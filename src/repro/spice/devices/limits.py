"""Voltage-step limiting of the diode junction.

This is the classic SPICE ``pnjlim``: without it the exponential diode
characteristic overflows as soon as Newton-Raphson proposes a junction
voltage a few hundred millivolts too high.  The MOSFET limiting functions
(``fetlim``, ``limvds``) are evaluated by the
:class:`~repro.spice.devices.mosfet.MosfetBank`.
"""

from __future__ import annotations

import math


def pnjlim(v_new: float, v_old: float, vt: float, v_crit: float) -> float:
    """Limit the update of a pn-junction voltage (Nagel's algorithm)."""
    if v_new > v_crit and abs(v_new - v_old) > 2.0 * vt:
        if v_old > 0.0:
            arg = 1.0 + (v_new - v_old) / vt
            if arg > 0.0:
                v_new = v_old + vt * math.log(arg)
            else:
                v_new = v_crit
        else:
            v_new = vt * math.log(v_new / vt)
    return v_new
