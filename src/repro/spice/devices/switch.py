"""Voltage-controlled switch (SPICE ``S`` element).

The switch is modelled as a smoothly interpolated conductance between
``ron`` and ``roff`` controlled by the voltage across the control terminals.
A smooth transition keeps Newton-Raphson well behaved.
"""

from __future__ import annotations

import math

from ...units import parse_value
from .base import Device, stamp_conductance, stamp_current_source, stamp_vccs

DEFAULT_SWITCH_PARAMS = {
    "ron": 1.0,
    "roff": 1e9,
    "vt": 0.0,
    "vh": 0.1,
}


class VoltageControlledSwitch(Device):
    """``S<name> n+ n- control+ control- model``."""

    PREFIX = "S"
    NUM_TERMINALS = 4

    def __init__(self, name, node_pos, node_neg, control_pos, control_neg,
                 model: str = ""):
        super().__init__(name, [node_pos, node_neg, control_pos, control_neg])
        self.model_name = str(model)
        self.params = dict(DEFAULT_SWITCH_PARAMS)

    def clone(self) -> "VoltageControlledSwitch":
        twin = super().clone()
        twin.params = dict(self.params)
        return twin

    def is_nonlinear(self) -> bool:
        return True

    def prepare(self, circuit) -> None:
        params = dict(DEFAULT_SWITCH_PARAMS)
        if self.model_name:
            model = circuit.model(self.model_name)
            params.update(model.params)
        self.params = {k: parse_value(v) for k, v in params.items()}

    def _conductance(self, vc: float) -> tuple[float, float]:
        """Return (g, dg/dvc) for control voltage ``vc``."""
        g_on = 1.0 / self.params["ron"]
        g_off = 1.0 / self.params["roff"]
        vt = self.params["vt"]
        vh = max(self.params["vh"], 1e-6)
        # Logistic interpolation between off and on conductance.
        x = (vc - vt) / vh
        x = max(min(x, 60.0), -60.0)
        sigma = 1.0 / (1.0 + math.exp(-x))
        log_g = math.log(g_off) + sigma * (math.log(g_on) - math.log(g_off))
        g = math.exp(log_g)
        dsigma = sigma * (1.0 - sigma) / vh
        dg = g * (math.log(g_on) - math.log(g_off)) * dsigma
        return g, dg

    def stamp(self, system, state) -> None:
        pos, neg, cpos, cneg = self._idx
        vc = state.v(cpos) - state.v(cneg)
        v = state.v(pos) - state.v(neg)
        g, dg = self._conductance(vc)
        stamp_conductance(system, pos, neg, g)
        # The dependence of the branch current on the control voltage adds a
        # transconductance term g_c = dg * v.
        gc = dg * v
        stamp_vccs(system, pos, neg, cpos, cneg, gc)
        # Companion current so that the stamp reproduces i = g*v at the
        # current iterate.
        ieq = -gc * vc
        stamp_current_source(system, pos, neg, ieq)

    def stamp_ac(self, system, state) -> None:
        pos, neg, cpos, cneg = self._idx
        vc = state.v(cpos) - state.v(cneg)
        g, _ = self._conductance(vc)
        stamp_conductance(system, pos, neg, g)
