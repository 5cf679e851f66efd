"""Brute-force reference for the comparator's fig. 5 verdict rule.

:func:`oracle_detection` applies the rule by its definition: for every
sample and every window-long run of samples ending there, it checks the
whole run, with none of :class:`~repro.anafault.StreamingDetector`'s
machinery (no run counter, no monotonic min-queue, no early decision).
It is quadratic and only meant for the short grids of the tests that
hold ``WaveformComparator.compare``/``compare_many`` and the streamed
campaign verdicts against it.
"""

from __future__ import annotations

import numpy as np

from repro.anafault import DetectionResult, ToleranceSettings
from repro.spice import Waveform


def persistence_window(tolerances: ToleranceSettings, times) -> int:
    """The time tolerance in samples of the grid's median spacing (1 for
    grids of fewer than two samples or a zero time tolerance)."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or tolerances.time <= 0.0:
        return 1
    dt = float(np.median(np.diff(times)))
    if dt <= 0.0:
        return 1
    return max(1, int(round(tolerances.time / dt)))


def oracle_detection(tolerances: ToleranceSettings,
                     nominal: dict[str, Waveform],
                     faulty: dict[str, Waveform]) -> DetectionResult:
    """The verdict over the signals of ``nominal`` that ``faulty`` holds
    (all on one faulty time grid): the earliest sample that closes a
    window-long run of deviations above the amplitude tolerance wins,
    the first signal on a tie; undetected results report the largest
    deviations over all signals and no signal."""
    names = [name for name in nominal if name in faulty]
    if not names:
        return DetectionResult(False, None, 0.0)
    times = np.asarray(faulty[names[0]].x, dtype=float)
    window = persistence_window(tolerances, times)
    best = None  # (detecting sample, result)
    worst, worst_persistent = 0.0, 0.0
    for name in names:
        nominal_y = (nominal[name].values_at(times) if times.size
                     else times)
        deviation = [abs(float(value) - float(reference))
                     for value, reference in zip(faulty[name].y, nominal_y)]
        runs = [deviation[end + 1 - window:end + 1]
                for end in range(window - 1, len(deviation))]
        persistent = max((min(run) for run in runs), default=0.0)
        peak = max(deviation, default=0.0)
        worst = max(worst, peak)
        worst_persistent = max(worst_persistent, persistent)
        hits = [window - 1 + start for start, run in enumerate(runs)
                if all(value > tolerances.amplitude for value in run)]
        if hits and (best is None or hits[0] < best[0]):
            best = (hits[0], DetectionResult(
                True, float(times[hits[0]]), peak, name, persistent))
    if best is not None:
        return best[1]
    return DetectionResult(False, None, worst,
                           persistent_deviation=worst_persistent)
