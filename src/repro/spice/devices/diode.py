"""Junction diode model (SPICE ``D`` element)."""

from __future__ import annotations

import math

from ...units import parse_value, thermal_voltage
from .base import Device, stamp_conductance, stamp_current_source
from .limits import pnjlim

#: Default saturation current [A].
DEFAULT_IS = 1e-14
#: Default emission coefficient.
DEFAULT_N = 1.0
#: Default series resistance [Ohm].
DEFAULT_RS = 0.0
#: Default junction capacitance [F].
DEFAULT_CJ0 = 0.0
#: Maximum exponent argument before the characteristic is linearised.
MAX_EXP_ARG = 80.0


class Diode(Device):
    """Junction diode ``D<name> anode cathode model [area]``."""

    PREFIX = "D"
    NUM_TERMINALS = 2

    def __init__(self, name, anode, cathode, model: str = "", area: float = 1.0):
        super().__init__(name, [anode, cathode])
        self.model_name = str(model)
        self.area = parse_value(area)
        self.isat = DEFAULT_IS
        self.emission = DEFAULT_N
        self.cj0 = DEFAULT_CJ0
        self._v_last = 0.0
        self._gd = 0.0

    def is_nonlinear(self) -> bool:
        return True

    def prepare(self, circuit) -> None:
        # Recomputed from the model card (or the defaults) on every call:
        # scaling the present values would compound ``area`` across
        # repeated analyses and clones of a simulated circuit.
        params = (circuit.model(self.model_name).params if self.model_name
                  else {})
        self.isat = float(params.get("is", DEFAULT_IS)) * self.area
        self.emission = float(params.get("n", DEFAULT_N))
        cj0 = params.get("cjo", params.get("cj0", DEFAULT_CJ0))
        self.cj0 = float(cj0) * self.area
        self._v_last = 0.0

    # ------------------------------------------------------------------
    def _evaluate(self, vd: float, temperature: float) -> tuple[float, float]:
        """Return (current, conductance) of the junction at voltage ``vd``."""
        vt = self.emission * thermal_voltage(temperature)
        arg = vd / vt
        if arg > MAX_EXP_ARG:
            # Linearise beyond the overflow limit.
            exp_max = math.exp(MAX_EXP_ARG)
            current = self.isat * (exp_max * (1.0 + arg - MAX_EXP_ARG) - 1.0)
            conductance = self.isat * exp_max / vt
        elif arg < -MAX_EXP_ARG:
            current = -self.isat
            conductance = 0.0
        else:
            exp_term = math.exp(arg)
            current = self.isat * (exp_term - 1.0)
            conductance = self.isat * exp_term / vt
        return current, conductance

    def _limit(self, vd: float, temperature: float) -> float:
        vt = self.emission * thermal_voltage(temperature)
        v_crit = vt * math.log(vt / (math.sqrt(2.0) * self.isat))
        limited = pnjlim(vd, self._v_last, vt, v_crit)
        return limited

    def stamp_iteration(self, system, state) -> None:
        """Linearised junction only; the capacitance is bank-stamped."""
        anode, cathode = self._idx
        vd_requested = state.v(anode) - state.v(cathode)
        vd = self._limit(vd_requested, state.temperature)
        if abs(vd - vd_requested) > 1e-6 + 1e-3 * abs(vd_requested):
            state.limited = True
        current, conductance = self._evaluate(vd, state.temperature)
        self._v_last = vd
        self._gd = conductance
        # Norton companion of the linearised junction.
        ieq = current - conductance * vd
        stamp_conductance(system, anode, cathode, conductance)
        stamp_current_source(system, anode, cathode, ieq)

    def companion_entries(self):
        return ((self.cj0, self._idx[0], self._idx[1], None),)

    def stamp_ac(self, system, state) -> None:
        anode, cathode = self._idx
        stamp_conductance(system, anode, cathode, self._gd)
        if self.cj0 > 0.0:
            stamp_conductance(system, anode, cathode,
                              1j * state.omega * self.cj0)

    def init_state(self, state) -> None:
        """Start the limiting history at the initial junction voltage (the
        builder's companion bank initialises the capacitance)."""
        self._v_last = state.v(self._idx[0]) - state.v(self._idx[1])
