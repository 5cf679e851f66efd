"""Independent voltage and current sources with SPICE waveform shapes.

Supported transient shapes: ``DC``, ``PULSE``, ``SIN``, ``PWL`` and ``EXP``.
Each shape is a small class with a ``value(time)`` method so that sources can
be shared between the schematic entry, the parser and the fault injector.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from ...errors import NetlistError
from ...units import parse_value
from .base import Device, stamp_current_source


class SourceShape:
    """Base class of time-dependent source shapes."""

    def value(self, time: float) -> float:
        raise NotImplementedError

    def dc_value(self) -> float:
        """Value used for DC / operating-point analyses."""
        return self.value(0.0)

    def spice_text(self) -> str:
        raise NotImplementedError


class DCShape(SourceShape):
    """Constant value."""

    def __init__(self, level):
        self.level = parse_value(level)

    def value(self, time: float) -> float:
        return self.level

    def spice_text(self) -> str:
        return f"DC {self.level:g}"


class PulseShape(SourceShape):
    """SPICE ``PULSE(v1 v2 td tr tf pw per)``."""

    def __init__(self, v1, v2, delay=0.0, rise=1e-9, fall=1e-9,
                 width=1e-6, period=2e-6):
        self.v1 = parse_value(v1)
        self.v2 = parse_value(v2)
        self.delay = parse_value(delay)
        self.rise = max(parse_value(rise), 1e-15)
        self.fall = max(parse_value(fall), 1e-15)
        self.width = parse_value(width)
        self.period = parse_value(period)
        if self.period <= 0.0:
            raise NetlistError("PULSE period must be positive")

    def value(self, time: float) -> float:
        if time < self.delay:
            return self.v1
        t = (time - self.delay) % self.period
        if t < self.rise:
            return self.v1 + (self.v2 - self.v1) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.v2
        t -= self.width
        if t < self.fall:
            return self.v2 + (self.v1 - self.v2) * t / self.fall
        return self.v1

    def dc_value(self) -> float:
        return self.v1

    def spice_text(self) -> str:
        return (f"PULSE({self.v1:g} {self.v2:g} {self.delay:g} {self.rise:g} "
                f"{self.fall:g} {self.width:g} {self.period:g})")


class SinShape(SourceShape):
    """SPICE ``SIN(vo va freq td theta)``."""

    def __init__(self, offset, amplitude, frequency, delay=0.0, damping=0.0):
        self.offset = parse_value(offset)
        self.amplitude = parse_value(amplitude)
        self.frequency = parse_value(frequency)
        self.delay = parse_value(delay)
        self.damping = parse_value(damping)

    def value(self, time: float) -> float:
        if time < self.delay:
            return self.offset
        t = time - self.delay
        envelope = math.exp(-self.damping * t) if self.damping else 1.0
        return self.offset + self.amplitude * envelope * math.sin(
            2.0 * math.pi * self.frequency * t)

    def dc_value(self) -> float:
        return self.offset

    def spice_text(self) -> str:
        return (f"SIN({self.offset:g} {self.amplitude:g} {self.frequency:g} "
                f"{self.delay:g} {self.damping:g})")


class PWLShape(SourceShape):
    """SPICE ``PWL(t1 v1 t2 v2 ...)`` piecewise-linear shape."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(parse_value(t), parse_value(v)) for t, v in points]
        if not pts:
            raise NetlistError("PWL source needs at least one point")
        times = [t for t, _ in pts]
        if any(b < a for a, b in zip(times, times[1:])):
            raise NetlistError("PWL time points must be non-decreasing")
        self.points = pts

    def value(self, time: float) -> float:
        times = [t for t, _ in self.points]
        if time <= times[0]:
            return self.points[0][1]
        if time >= times[-1]:
            return self.points[-1][1]
        hi = bisect.bisect_right(times, time)
        t0, v0 = self.points[hi - 1]
        t1, v1 = self.points[hi]
        if t1 == t0:
            return v1
        return v0 + (v1 - v0) * (time - t0) / (t1 - t0)

    def dc_value(self) -> float:
        return self.points[0][1]

    def spice_text(self) -> str:
        inner = " ".join(f"{t:g} {v:g}" for t, v in self.points)
        return f"PWL({inner})"


class ExpShape(SourceShape):
    """SPICE ``EXP(v1 v2 td1 tau1 td2 tau2)``."""

    def __init__(self, v1, v2, delay1=0.0, tau1=1e-9, delay2=1e-6, tau2=1e-9):
        self.v1 = parse_value(v1)
        self.v2 = parse_value(v2)
        self.delay1 = parse_value(delay1)
        self.tau1 = max(parse_value(tau1), 1e-15)
        self.delay2 = parse_value(delay2)
        self.tau2 = max(parse_value(tau2), 1e-15)

    def value(self, time: float) -> float:
        v = self.v1
        if time >= self.delay1:
            v += (self.v2 - self.v1) * (1.0 - math.exp(-(time - self.delay1) / self.tau1))
        if time >= self.delay2:
            v += (self.v1 - self.v2) * (1.0 - math.exp(-(time - self.delay2) / self.tau2))
        return v

    def dc_value(self) -> float:
        return self.v1

    def spice_text(self) -> str:
        return (f"EXP({self.v1:g} {self.v2:g} {self.delay1:g} {self.tau1:g} "
                f"{self.delay2:g} {self.tau2:g})")


def _coerce_shape(value) -> SourceShape:
    if isinstance(value, SourceShape):
        return value
    return DCShape(value)


class IndependentSource(Device):
    """Common behaviour of V and I sources."""

    NUM_TERMINALS = 2

    def __init__(self, name: str, node_pos: str, node_neg: str, value,
                 ac_magnitude: float = 0.0, ac_phase: float = 0.0):
        super().__init__(name, [node_pos, node_neg])
        self.shape = _coerce_shape(value)
        self.ac_magnitude = parse_value(ac_magnitude)
        self.ac_phase = parse_value(ac_phase)

    def source_value(self, state) -> float:
        """Instantaneous value, honouring DC sweep overrides and source
        stepping."""
        override = state.source_overrides.get(self.name.lower())
        if override is not None:
            base = override
        elif state.mode == "tran":
            base = self.shape.value(state.time)
        else:
            base = self.shape.dc_value()
        return base * state.source_factor

    def ac_value(self) -> complex:
        phase = math.radians(self.ac_phase)
        return self.ac_magnitude * complex(math.cos(phase), math.sin(phase))


class VoltageSource(IndependentSource):
    """Independent voltage source; introduces one branch-current unknown."""

    PREFIX = "V"

    def branch_count(self) -> int:
        return 1

    def stamp(self, system, state) -> None:
        pos, neg = self._idx
        br = self.branch_index
        system.add(pos, br, 1.0)
        system.add(neg, br, -1.0)
        system.add(br, pos, 1.0)
        system.add(br, neg, -1.0)
        system.add_rhs(br, self.source_value(state))

    def stamp_ac(self, system, state) -> None:
        pos, neg = self._idx
        br = self.branch_index
        system.add(pos, br, 1.0)
        system.add(neg, br, -1.0)
        system.add(br, pos, 1.0)
        system.add(br, neg, -1.0)
        system.add_rhs(br, self.ac_value())


class CurrentSource(IndependentSource):
    """Independent current source; current flows from n+ to n- internally."""

    PREFIX = "I"

    def stamp(self, system, state) -> None:
        pos, neg = self._idx
        stamp_current_source(system, pos, neg, self.source_value(state))

    def stamp_ac(self, system, state) -> None:
        pos, neg = self._idx
        stamp_current_source(system, pos, neg, self.ac_value())
