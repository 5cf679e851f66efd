"""Passive two-terminal devices: resistor, capacitor, inductor."""

from __future__ import annotations

from ...errors import NetlistError
from ...units import parse_value
from .base import Device, stamp_conductance

#: Smallest resistance accepted before it is clamped (avoids singular MNA).
MIN_RESISTANCE = 1e-9


class Resistor(Device):
    """Linear resistor ``R<name> n+ n- value``."""

    PREFIX = "R"
    NUM_TERMINALS = 2

    def __init__(self, name: str, node_pos: str, node_neg: str, value):
        super().__init__(name, [node_pos, node_neg])
        self.resistance = parse_value(value)
        if self.resistance < 0.0:
            raise NetlistError(f"resistor {name!r} has negative value")

    @property
    def conductance(self) -> float:
        return 1.0 / max(self.resistance, MIN_RESISTANCE)

    def stamp(self, system, state) -> None:
        stamp_conductance(system, self._idx[0], self._idx[1], self.conductance)

    def stamp_ac(self, system, state) -> None:
        stamp_conductance(system, self._idx[0], self._idx[1], self.conductance)


class Capacitor(Device):
    """Linear capacitor ``C<name> n+ n- value [ic=v0]``.

    Open circuit in DC; companion model in transient; ``jwC`` in AC.
    """

    PREFIX = "C"
    NUM_TERMINALS = 2

    def __init__(self, name: str, node_pos: str, node_neg: str, value,
                 ic: float | None = None):
        super().__init__(name, [node_pos, node_neg])
        self.capacitance = parse_value(value)
        if self.capacitance < 0.0:
            raise NetlistError(f"capacitor {name!r} has negative value")
        self.initial_voltage = None if ic is None else parse_value(ic)

    def stamp(self, system, state) -> None:
        """Nothing: open at DC, and in transient the builder's companion
        bank stamps the capacitance (honouring ``ic=`` under ``use_ic``)."""

    def companion_entries(self):
        return ((self.capacitance, self._idx[0], self._idx[1],
                 self.initial_voltage),)

    def stamp_ac(self, system, state) -> None:
        if self.capacitance > 0.0:
            stamp_conductance(system, self._idx[0], self._idx[1],
                              1j * state.omega * self.capacitance)


class Inductor(Device):
    """Linear inductor ``L<name> n+ n- value [ic=i0]``.

    Modelled with an explicit branch-current unknown so that it behaves as a
    short circuit at DC.
    """

    PREFIX = "L"
    NUM_TERMINALS = 2

    def __init__(self, name: str, node_pos: str, node_neg: str, value,
                 ic: float | None = None):
        super().__init__(name, [node_pos, node_neg])
        self.inductance = parse_value(value)
        if self.inductance < 0.0:
            raise NetlistError(f"inductor {name!r} has negative value")
        self.initial_current = None if ic is None else parse_value(ic)
        self._i_prev = 0.0
        self._v_prev = 0.0

    def branch_count(self) -> int:
        return 1

    def init_state(self, state) -> None:
        if self.initial_current is not None and state.use_ic:
            self._i_prev = self.initial_current
        else:
            self._i_prev = state.x[self.branch_index]
        self._v_prev = state.v(self._idx[0]) - state.v(self._idx[1])

    def stamp(self, system, state) -> None:
        pos, neg = self._idx
        br = self.branch_index
        # KCL: branch current leaves pos, enters neg.
        system.add(pos, br, 1.0)
        system.add(neg, br, -1.0)
        # Branch equation.
        system.add(br, pos, 1.0)
        system.add(br, neg, -1.0)
        if state.mode == "tran":
            req = state.integ_c0 * self.inductance
            if state.integ_pred_x is not None:
                # BDF corrector: v = L*i' with i' = dpred + c0*(i - ipred).
                veq = self.inductance * (
                    state.pred_d(br) - state.integ_c0 * state.pred(br))
            else:
                # Branch equation:
                # v(pos) - v(neg) - req*i = -(req*i_prev + c1*v_prev)
                veq = -(req * self._i_prev + state.integ_c1 * self._v_prev)
            system.add(br, br, -req)
            system.add_rhs(br, veq)
        # DC: v(pos) - v(neg) = 0 (ideal short), nothing more to stamp.

    def stamp_ac(self, system, state) -> None:
        pos, neg = self._idx
        br = self.branch_index
        system.add(pos, br, 1.0)
        system.add(neg, br, -1.0)
        system.add(br, pos, 1.0)
        system.add(br, neg, -1.0)
        system.add(br, br, -1j * state.omega * self.inductance)

    def accept_timestep(self, state) -> None:
        self._i_prev = state.x[self.branch_index]
        self._v_prev = state.v(self._idx[0]) - state.v(self._idx[1])
