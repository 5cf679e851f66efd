"""Verdict-tolerance calibration for adaptive-timestep campaigns.

A fault campaign's verdicts (detected / undetected, detection time,
deviation margin) are evaluated on the shared print grid, but an
adaptive-timestep run *computes* those print rows by interpolating its
own variable-step, variable-order integration grid.  Before trusting an
adaptive campaign, :func:`calibrate_tolerance` bounds how sensitive the
comparator's verdicts are to that choice:

1. pick a seeded probe subset of the fault list (deterministic for a
   given ``seed``),
2. simulate it with the fixed-step reference settings and with the
   campaign's adaptive settings at the configured ``lte_reltol`` as well
   as a tightened (``lte_reltol / factor``) and a loosened
   (``lte_reltol * factor``) variant,
3. require every probe fault's verdict to be identical across all legs,
   every detection time to shift by less than the comparator's *time*
   tolerance, and every deviation margin to shift by less than
   ``margin_fraction`` of the comparator's *amplitude* tolerance.

The result is a :class:`CalibrationReport`; a passing report is the
evidence that ``CampaignSettings.timestep="adaptive"`` yields the same
campaign verdicts the fixed-step grid would.  It also counts the Newton
solves of both legs: against that fixed print grid (the paper's 10 ns
grid in the fig. 5 campaign) the adaptive leg may cost more, not less;
its saving against a *converged* fixed-step reference is measured in
``benchmarks/bench_fig5_fault_coverage.py``.  Campaign entry points
attach ``report.to_dict()`` to
:attr:`CampaignResult.calibration <repro.anafault.simulator.CampaignResult>`
so the bound travels with the campaign telemetry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..errors import CampaignError
from ..spice import TransientOptions

__all__ = ["CalibrationReport", "calibrate_tolerance"]


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one :func:`calibrate_tolerance` pass."""

    #: Whether the calibration bounds all held (see class docstring).
    passed: bool
    #: RNG seed the probe subset was drawn with.
    seed: int
    #: Fault ids of the probe subset, in fault-list order.
    probe_ids: tuple[int, ...]
    #: ``lte_reltol`` of each adaptive leg (campaign, tightened, loosened).
    reltols: tuple[float, ...]
    #: Largest band-clamped shift of the comparator's decision scalar
    #: (``persistent_deviation``, the largest deviation sustained for a
    #: full persistence window — the verdict is exactly its comparison
    #: against the amplitude tolerance) over all probe faults and
    #: adaptive legs [V].  Values are clamped to the decision band
    #: (amplitude tolerance ± the margin budget) before differencing, so
    #: only movement that could influence a verdict counts — a fault 3 V
    #: beyond a 2 V threshold may drift freely without destabilising
    #: anything.
    max_margin_shift: float
    #: The margin-shift budget: ``margin_fraction`` of the comparator's
    #: amplitude tolerance [V].
    margin_budget: float
    #: Largest detection-time shift vs the fixed reference [s] (only
    #: faults detected in both legs contribute).
    max_detection_shift: float
    #: The detection-shift budget: the comparator's time tolerance [s].
    detection_budget: float
    #: Whether every probe fault got the same verdict in every leg.
    verdicts_identical: bool
    #: Newton solves of the fixed-step leg on the campaign's print grid
    #: (probe subset; not a converged reference).
    newton_fixed: int
    #: Newton solves of the campaign-tolerance adaptive leg.
    newton_adaptive: int
    #: Per-fault detail rows: ``fault_id`` → ``{"fixed": status,
    #: "adaptive": status, "tight": status, "loose": status,
    #: "margin_shift": V, "detection_shift": s}``.
    rows: dict[int, dict] = field(default_factory=dict)

    @property
    def newton_saving(self) -> float:
        """Fractional Newton-solve saving of the adaptive leg vs the fixed
        grid (0.35 = 35% fewer; negative when adaptive costs more)."""
        if self.newton_fixed <= 0:
            return 0.0
        return 1.0 - self.newton_adaptive / self.newton_fixed

    def to_dict(self) -> dict:
        """JSON-serialisable payload (campaign telemetry / checkpoints)."""
        return {
            "passed": bool(self.passed),
            "seed": int(self.seed),
            "probe_ids": list(self.probe_ids),
            "reltols": list(self.reltols),
            "max_margin_shift": float(self.max_margin_shift),
            "margin_budget": float(self.margin_budget),
            "max_detection_shift": float(self.max_detection_shift),
            "detection_budget": float(self.detection_budget),
            "verdicts_identical": bool(self.verdicts_identical),
            "newton_fixed": int(self.newton_fixed),
            "newton_adaptive": int(self.newton_adaptive),
            "newton_saving": float(self.newton_saving),
        }

    def summary(self) -> str:
        """One human line for CLI output and benchmark tables."""
        verdict = "PASS" if self.passed else "FAIL"
        return (f"calibration {verdict}: {len(self.probe_ids)} probe faults, "
                f"margin shift {self.max_margin_shift:.3g}V "
                f"<= {self.margin_budget:.3g}V, detection shift "
                f"{self.max_detection_shift:.3g}s "
                f"<= {self.detection_budget:.3g}s, verdicts "
                f"{'identical' if self.verdicts_identical else 'DIVERGED'}, "
                f"{self._cost_phrase()}")

    def _cost_phrase(self) -> str:
        saving = self.newton_saving
        if saving < 0.0:
            return (f"adaptive costs {-100.0 * saving:.0f}% more than the "
                    f"{self.newton_fixed} fixed-grid solves")
        return (f"adaptive saves {100.0 * saving:.0f}% of the "
                f"{self.newton_fixed} fixed-grid solves")


def _probe_subset(fault_list, count: int, seed: int):
    """Seeded, order-preserving probe subset of ``fault_list``."""
    from ..lift.faultlist import FaultList

    faults = list(fault_list)
    if len(faults) > count:
        picked = set(random.Random(seed).sample(range(len(faults)), count))
        faults = [fault for index, fault in enumerate(faults)
                  if index in picked]
    return FaultList.from_faults(
        faults, name=f"{getattr(fault_list, 'name', 'fault list')} "
                     f"(calibration probe)")


def calibrate_tolerance(circuit, fault_list, settings, *, probes: int = 8,
                        seed: int = 2026, factor: float = 3.0,
                        margin_fraction: float = 0.25,
                        executor=None) -> CalibrationReport:
    """Bound the verdict sensitivity of an adaptive campaign's tolerance.

    ``settings`` must be a :class:`~repro.anafault.CampaignSettings` whose
    ``timestep`` mode is ``"adaptive"`` (:class:`~repro.errors.CampaignError`
    otherwise — there is nothing to calibrate about the fixed reference
    grid).  ``probes`` faults are drawn with ``seed``; each extra leg
    multiplies/divides ``lte_reltol`` by ``factor``.  ``executor`` (a
    fresh one per leg is not needed — executors are stateless across
    :meth:`FaultSimulator.run` calls) defaults to serial execution.
    """
    from .executors import SerialExecutor
    from .simulator import FaultSimulator

    timestep = getattr(settings, "timestep", None)
    if getattr(timestep, "mode", "fixed") != "adaptive":
        raise CampaignError(
            "calibrate_tolerance needs CampaignSettings.timestep in "
            "adaptive mode (the fixed grid is the reference being "
            "calibrated against)")
    probe = _probe_subset(fault_list, int(probes), int(seed))
    reltol = float(timestep.lte_reltol)
    legs = {
        "fixed": replace(settings, timestep=TransientOptions()),
        "adaptive": settings,
        "tight": replace(settings, timestep=replace(
            timestep, lte_reltol=reltol / factor)),
        "loose": replace(settings, timestep=replace(
            timestep, lte_reltol=reltol * factor)),
    }
    results = {}
    for name, leg_settings in legs.items():
        results[name] = FaultSimulator(circuit, probe, leg_settings).run(
            executor=executor if executor is not None else SerialExecutor())

    amplitude = float(settings.tolerances.amplitude)
    time_tolerance = float(settings.tolerances.time)
    margin_budget = float(margin_fraction) * amplitude

    def _banded(deviation: float) -> float:
        """Deviation clamped to the comparator's decision band — only
        movement within ``amplitude ± margin_budget`` can influence a
        verdict; beyond it the comparator has already saturated."""
        return min(max(deviation, amplitude - margin_budget),
                   amplitude + margin_budget)

    rows: dict[int, dict] = {}
    max_margin_shift = 0.0
    max_detection_shift = 0.0
    verdicts_identical = True
    for fault in probe:
        per_leg = {name: results[name].record_for(fault.fault_id)
                   for name in legs}
        reference = per_leg["fixed"]
        margin_shift = max(
            abs(_banded(float(per_leg[name].persistent_deviation or 0.0))
                - _banded(float(reference.persistent_deviation or 0.0)))
            for name in ("adaptive", "tight", "loose"))
        detection_shift = max(
            (abs(float(per_leg[name].detection_time)
                 - float(reference.detection_time))
             for name in ("adaptive", "tight", "loose")
             if per_leg[name].detection_time is not None
             and reference.detection_time is not None), default=0.0)
        statuses = {name: per_leg[name].status for name in legs}
        if len(set(statuses.values())) > 1:
            verdicts_identical = False
        max_margin_shift = max(max_margin_shift, margin_shift)
        max_detection_shift = max(max_detection_shift, detection_shift)
        rows[fault.fault_id] = dict(statuses, margin_shift=margin_shift,
                                    detection_shift=detection_shift)

    passed = (verdicts_identical
              and max_margin_shift <= margin_budget
              and max_detection_shift <= time_tolerance)
    return CalibrationReport(
        passed=passed, seed=int(seed),
        probe_ids=tuple(fault.fault_id for fault in probe),
        reltols=(reltol, reltol / factor, reltol * factor),
        max_margin_shift=max_margin_shift, margin_budget=margin_budget,
        max_detection_shift=max_detection_shift,
        detection_budget=time_tolerance,
        verdicts_identical=verdicts_identical,
        newton_fixed=results["fixed"].total_newton_iterations(),
        newton_adaptive=results["adaptive"].total_newton_iterations(),
        rows=rows)
