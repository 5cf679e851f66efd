"""Tolerance-based comparison of faulty and fault-free responses.

Fig. 5 of the paper uses a tolerance of 2 V on the amplitude and 0.2 us on
the time axis: a fault is considered *detected* at time t when the faulty
response has differed from the fault-free response by more than the
amplitude tolerance *continuously for at least the time tolerance*.  The
time tolerance acts as a persistence (glitch) filter: brief edge
misalignments caused by sampling or small phase shifts are not flagged,
while a stuck output or an accumulated frequency drift eventually violates
the band for longer than 0.2 us and is detected.

The rule is implemented once, as the causal scan of
:class:`StreamingDetector`.  Campaigns feed it print rows as they land;
:meth:`WaveformComparator.compare` and
:meth:`~WaveformComparator.compare_many` feed it finished waveforms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import CampaignError
from ..spice.waveform import Waveform


@dataclass
class ToleranceSettings:
    """Detection tolerances (defaults as in Fig. 5)."""

    amplitude: float = 2.0
    time: float = 0.2e-6

    def __post_init__(self):
        if self.amplitude < 0.0 or self.time < 0.0:
            raise CampaignError("tolerances must be non-negative")


@dataclass
class DetectionResult:
    """Outcome of comparing one faulty waveform against the reference."""

    detected: bool
    detection_time: float | None
    max_deviation: float
    signal: str = ""
    #: The comparator's decision scalar: the largest deviation sustained
    #: for a full persistence window, i.e. the maximum over all
    #: window-long sample runs of the run's *minimum* deviation (0 when
    #: the grid is shorter than the window).  ``detected`` is exactly
    #: ``persistent_deviation > amplitude``; unlike ``max_deviation`` it
    #: is blind to non-persistent spikes, and
    #: :func:`repro.anafault.calibrate_tolerance` bounds its shift across
    #: integration grids.
    persistent_deviation: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.detected


class WaveformComparator:
    """Compare waveforms under amplitude/time tolerances."""

    def __init__(self, tolerances: ToleranceSettings | None = None):
        self.tolerances = tolerances or ToleranceSettings()

    # ------------------------------------------------------------------
    def _persistence_window(self, times: np.ndarray) -> int:
        if times.size < 2 or self.tolerances.time <= 0.0:
            return 1
        dt = float(np.median(np.diff(times)))
        if dt <= 0.0:
            return 1
        return max(1, int(round(self.tolerances.time / dt)))

    def compare(self, nominal: Waveform, faulty: Waveform,
                signal: str = "") -> DetectionResult:
        """Return when (if ever) the faulty waveform violates the amplitude
        tolerance for at least the time tolerance.

        The nominal waveform is interpolated onto the faulty time grid.
        The result carries ``signal`` whether or not it detects.
        """
        result = self.compare_many({signal: nominal}, {signal: faulty})
        result.signal = signal
        return result

    def compare_many(self, nominal: dict[str, Waveform],
                     faulty: dict[str, Waveform]) -> DetectionResult:
        """Compare several observation signals; detection on any one counts.

        One :class:`StreamingDetector` over the faulty time grid is fed
        every sample, so the result is the campaign's verdict: the
        earliest detection over the signals of ``nominal`` that
        ``faulty`` holds (the first such signal on a tie), and ``signal``
        is ``""`` when nothing detects.  The faulty waveforms must share
        one time grid; a signal on another grid raises
        :class:`~repro.errors.CampaignError`.
        """
        signals = {name: wave for name, wave in nominal.items()
                   if name in faulty}
        if not signals:
            return DetectionResult(False, None, 0.0)
        first = next(iter(signals))
        times = faulty[first].x
        for name in signals:
            if not np.array_equal(faulty[name].x, times):
                raise CampaignError(
                    f"faulty signal {name!r} is not on the time grid of "
                    f"signal {first!r}")
        columns = {name: np.asarray(faulty[name].y, dtype=float)
                   for name in signals}
        detector = StreamingDetector(self, signals, times)
        for index in range(times.size):
            detector.feed({name: column[index]
                           for name, column in columns.items()})
        return detector.result()


@dataclass
class _SignalScan:
    """Per-signal persistence-scan state of a :class:`StreamingDetector`."""

    name: str
    nominal_y: np.ndarray
    run: int = 0
    max_deviation: float = 0.0
    #: :attr:`DetectionResult.persistent_deviation` over the fed prefix.
    persistent: float = 0.0
    #: Monotonic (index, deviation) min-queue of the current window — the
    #: streaming form of the sliding-window minimum.
    minq: deque = field(default_factory=deque)


class StreamingDetector:
    """The comparator's persistence scan, one sample at a time.

    The lockstep campaign driver produces print rows one at a time; this
    detector consumes them as they land (:meth:`feed`) and maintains, per
    observation signal, the length of the current run of amplitude
    violations, the running maximum deviation and the running
    :attr:`~DetectionResult.persistent_deviation`, plus the first sample
    where any signal's run reached the persistence window.  Fed every
    sample of the grid — starting with row 0, the initial state —
    :meth:`result` is the verdict :meth:`WaveformComparator.compare_many`
    returns on the completed waveforms (it is the same scan): the earliest
    detecting sample wins, the first signal on a tie, and an undetected
    result reports the largest deviations over all signals.

    The incremental form is also what makes early abort sound: the
    moment :attr:`decided` turns true, ``detected``/``detection_time``/
    ``signal`` are provably fixed — later samples can only grow
    ``max_deviation`` and ``persistent_deviation``.  A campaign aborting
    a variant at that point gets the serial verdict and detection time
    exactly; only the reported deviations (and step counters) stop short
    of the full trace.
    """

    def __init__(self, comparator: WaveformComparator,
                 nominal: dict[str, Waveform], times: np.ndarray):
        """Interpolate each nominal signal onto ``times`` and reset state.

        ``nominal`` maps the observation signals (in comparison order) to
        their fault-free waveforms; every later :meth:`feed` must supply a
        value for each of these signals.  A nominal waveform that is not
        finite on ``times`` raises :class:`~repro.errors.CampaignError`.
        """
        times = np.asarray(times, dtype=float)
        self._times = times
        self._amplitude = comparator.tolerances.amplitude
        self._window = comparator._persistence_window(times)
        # Zero-sample grids never interpolate (np.interp refuses empty
        # sample points); the verdict is undetected with zero deviation.
        self._scans = [
            _SignalScan(signal, (times if times.size == 0
                                 else wave.values_at(times)))
            for signal, wave in nominal.items()]
        for scan in self._scans:
            bad = np.flatnonzero(~np.isfinite(scan.nominal_y))
            if bad.size:
                raise CampaignError(
                    f"nominal signal {scan.name!r} is "
                    f"{scan.nominal_y[bad[0]]} at sample {bad[0]}")
        self._cursor = 0
        self._decision: tuple[int, _SignalScan] | None = None

    @property
    def cursor(self) -> int:
        """Number of samples fed so far (== the next expected row index)."""
        return self._cursor

    @property
    def decided(self) -> bool:
        """True once the detection verdict is certain.

        A detected verdict is final as soon as a persistence run completes;
        an *undetected* verdict is only certain at the end of the grid, so
        this stays false for undetected faults until the last sample.
        """
        return self._decision is not None

    def _deviations(self, values, index: int) -> list:
        """|value - nominal| per signal of the row ``values``; a missing
        signal or a value without a finite deviation raises
        :class:`~repro.errors.CampaignError` naming signal and sample."""
        deviations = []
        for scan in self._scans:
            try:
                value = values[scan.name]
            except (KeyError, TypeError, IndexError):
                raise CampaignError(
                    f"StreamingDetector row {index} has no value for "
                    f"signal {scan.name!r}") from None
            try:
                deviation = abs(value - scan.nominal_y[index])
                finite = bool(deviation < math.inf)
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise CampaignError(
                    f"StreamingDetector sample {index} of signal "
                    f"{scan.name!r} is {value!r}, not a finite number")
            deviations.append(deviation)
        return deviations

    def feed(self, values) -> None:
        """Consume the next print row; ``values`` maps signal name → value.

        Rows must arrive in grid order, starting at index 0 (the initial
        state).  Feeding past the end of the grid, a row missing a
        signal, or a value that is not a finite number raises
        :class:`~repro.errors.CampaignError` and leaves the detector as
        it was.
        """
        index = self._cursor
        if index >= self._times.size:
            raise CampaignError(
                f"StreamingDetector fed {index + 1} samples but the grid "
                f"has only {self._times.size}")
        window = self._window
        for scan, deviation in zip(self._scans,
                                   self._deviations(values, index)):
            if deviation > scan.max_deviation:
                scan.max_deviation = deviation
            if window <= 1:
                scan.persistent = scan.max_deviation
            else:
                # Sliding-window minimum via a monotonic queue: the head
                # holds the current window's minimum deviation, and the
                # running maximum of that is the persistent deviation.
                minq = scan.minq
                while minq and minq[-1][1] >= deviation:
                    minq.pop()
                minq.append((index, deviation))
                while minq[0][0] <= index - window:
                    minq.popleft()
                if index >= window - 1 and minq[0][1] > scan.persistent:
                    scan.persistent = minq[0][1]
            if deviation > self._amplitude:
                scan.run += 1
                if scan.run >= window and self._decision is None:
                    self._decision = (index, scan)
            else:
                scan.run = 0
        self._cursor += 1

    def result(self) -> DetectionResult:
        """The verdict over the samples fed so far.

        Final once the whole grid has been fed; callable earlier for
        early-aborted variants (the verdict fields are final then,
        ``max_deviation`` and ``persistent_deviation`` cover the fed
        prefix only).
        """
        if self._decision is not None:
            index, scan = self._decision
            return DetectionResult(True, float(self._times[index]),
                                   float(scan.max_deviation), scan.name,
                                   float(scan.persistent))
        worst = 0.0
        worst_persistent = 0.0
        for scan in self._scans:
            if scan.max_deviation > worst:
                worst = scan.max_deviation
            if scan.persistent > worst_persistent:
                worst_persistent = scan.persistent
        return DetectionResult(False, None, float(worst),
                               persistent_deviation=float(worst_persistent))
