"""Waveform container used to exchange simulation results.

A :class:`Waveform` is an (x, y) sampled signal -- typically node voltage
versus time -- with the small set of operations the AnaFAULT comparator
needs: interpolation, resampling, min/max, and difference metrics under a
time tolerance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import AnalysisError


class Waveform:
    """A sampled signal y(x) with monotonically non-decreasing x."""

    def __init__(self, x: Sequence[float], y: Sequence[float], name: str = "",
                 unit: str = "V", x_unit: str = "s"):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y)
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise AnalysisError("waveform arrays must be one-dimensional")
        if self.x.shape != self.y.shape:
            raise AnalysisError(
                f"waveform {name!r}: x has {self.x.size} samples, "
                f"y has {self.y.size}")
        if self.x.size and np.any(np.diff(self.x) < 0.0):
            raise AnalysisError(f"waveform {name!r}: x must be non-decreasing")
        self.name = name
        self.unit = unit
        self.x_unit = x_unit

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.x.size)

    def __iter__(self):
        return iter(zip(self.x, self.y))

    @property
    def nbytes(self) -> int:
        """Memory footprint of the sample data (both axes) in bytes.

        Note this counts x *and* y; the kernel's ``stats["trace_bytes"]``
        telemetry counts only the trace matrix (y columns), so the two
        measures differ by the shared time axis.
        """
        return int(self.x.nbytes) + int(self.y.nbytes)

    def value_at(self, x: float) -> float:
        """Linearly interpolated value at ``x`` (clamped at the ends)."""
        if self.x.size == 0:
            raise AnalysisError(f"waveform {self.name!r} is empty")
        return float(np.interp(x, self.x, self.y))

    def values_at(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorised linear interpolation."""
        return np.interp(np.asarray(list(xs), dtype=float), self.x, self.y)

    def resample(self, xs: Sequence[float]) -> "Waveform":
        """Return a new waveform sampled on the given x grid."""
        xs = np.asarray(xs, dtype=float)
        return Waveform(xs, np.interp(xs, self.x, self.y), self.name,
                        self.unit, self.x_unit)

    def slice(self, x_min: float, x_max: float) -> "Waveform":
        """Return the part of the waveform with ``x_min <= x <= x_max``."""
        mask = (self.x >= x_min) & (self.x <= x_max)
        return Waveform(self.x[mask], self.y[mask], self.name, self.unit,
                        self.x_unit)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def minimum(self) -> float:
        return float(np.min(self.y))

    def maximum(self) -> float:
        return float(np.max(self.y))

    def peak_to_peak(self) -> float:
        return self.maximum() - self.minimum()

    def mean(self) -> float:
        return float(np.mean(self.y))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(np.abs(self.y)))))

    def final_value(self) -> float:
        return float(self.y[-1])

    # ------------------------------------------------------------------
    # Signal processing helpers
    # ------------------------------------------------------------------
    def crossings(self, level: float, rising: bool | None = None) -> np.ndarray:
        """Return the x positions where the waveform crosses ``level``.

        ``rising=True`` keeps only upward crossings, ``False`` only downward
        ones, ``None`` keeps both.
        """
        if self.x.size < 2:
            return np.empty(0)
        below = self.y[:-1] < level
        above = self.y[1:] >= level
        up = below & above
        down = (~below) & (~above)
        if rising is True:
            mask = up
        elif rising is False:
            mask = down
        else:
            mask = up | down
        indices = np.nonzero(mask)[0]
        crossings = []
        for i in indices:
            y0, y1 = self.y[i], self.y[i + 1]
            if y1 == y0:
                crossings.append(self.x[i])
            else:
                frac = (level - y0) / (y1 - y0)
                crossings.append(self.x[i] + frac * (self.x[i + 1] - self.x[i]))
        return np.asarray(crossings)

    def frequency(self, level: float | None = None) -> float:
        """Estimate the fundamental frequency from rising crossings.

        Returns 0.0 when fewer than two rising crossings exist (no
        oscillation).
        """
        if level is None:
            level = 0.5 * (self.minimum() + self.maximum())
        rising = self.crossings(level, rising=True)
        if rising.size < 2:
            return 0.0
        periods = np.diff(rising)
        periods = periods[periods > 0.0]
        if periods.size == 0:
            return 0.0
        return float(1.0 / np.mean(periods))

    def oscillates(self, min_swing: float = 1.0, min_cycles: int = 2) -> bool:
        """Heuristic oscillation detector used by the VCO examples/tests."""
        if self.peak_to_peak() < min_swing:
            return False
        level = 0.5 * (self.minimum() + self.maximum())
        return self.crossings(level, rising=True).size >= min_cycles

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def difference(self, other: "Waveform") -> "Waveform":
        """Pointwise difference self - other on this waveform's grid."""
        other_y = np.interp(self.x, other.x, other.y)
        return Waveform(self.x, self.y - other_y, f"{self.name}-{other.name}",
                        self.unit, self.x_unit)

    def max_abs_error(self, other: "Waveform") -> float:
        return float(np.max(np.abs(self.difference(other).y))) if len(self) else 0.0

    # ------------------------------------------------------------------
    # Arithmetic conveniences
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Waveform):
            other = np.interp(self.x, other.x, other.y)
        return Waveform(self.x, self.y + other, self.name, self.unit, self.x_unit)

    def __sub__(self, other):
        if isinstance(other, Waveform):
            other = np.interp(self.x, other.x, other.y)
        return Waveform(self.x, self.y - other, self.name, self.unit, self.x_unit)

    def __mul__(self, scale: float):
        return Waveform(self.x, self.y * scale, self.name, self.unit, self.x_unit)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Waveform({self.name!r}, {len(self)} samples, "
                f"[{self.minimum():.3g}, {self.maximum():.3g}] {self.unit})")


def ascii_plot(waveforms: Sequence[Waveform], width: int = 72, height: int = 18,
               title: str = "") -> str:
    """Render one or more waveforms as an ASCII chart (reports/benchmarks)."""
    if not waveforms:
        return "(no data)"
    markers = "*o+x#@"
    x_min = min(w.x.min() for w in waveforms if len(w))
    x_max = max(w.x.max() for w in waveforms if len(w))
    y_min = min(w.minimum() for w in waveforms if len(w))
    y_max = max(w.maximum() for w in waveforms if len(w))
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, wave in enumerate(waveforms):
        marker = markers[index % len(markers)]
        xs = np.linspace(x_min, x_max, width)
        ys = wave.values_at(xs)
        for col, value in enumerate(ys):
            row = int(round((y_max - value) / (y_max - y_min) * (height - 1)))
            row = min(max(row, 0), height - 1)
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.3g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{y_min:10.3g} +" + "-" * width + "+")
    lines.append(" " * 12 + f"{x_min:<12.3g}" + " " * max(width - 24, 0) + f"{x_max:>12.3g}")
    legend = "  ".join(f"{markers[i % len(markers)]} {w.name or f'wave{i}'}"
                       for i, w in enumerate(waveforms))
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
