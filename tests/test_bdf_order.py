"""Tests for the variable-order integration engine (trapezoidal at order
2, BDF/Gear at orders 3-5).

Two independent checks of the tentpole:

* **measured convergence order** — with the order pinned
  (``min_order == max_order == k``) and the LTE controller disabled
  (huge tolerances, fixed internal step), the observed error against an
  analytic solution must halve like ``h^k``: the step-doubling slope
  ``log2(err(h) / err(h/2))`` matches the selected order to +-0.3.  The
  property is driven by hypothesis over the order, so shrinking reports
  the lowest failing order directly.
* **solver-cache coefficient keying** — the linear-bypass factorisation
  cache must key on the integrator coefficients ``(c0, c1, gmin)``, not
  on the step size alone: backward Euler at ``h`` and trapezoid at ``h``
  build *different* matrices, and a ``dt``-keyed cache would silently
  reuse the stale factors whenever the order changes at a matched step
  (the startup ramp does exactly that on its very first order raise).
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.spice import (
    Capacitor,
    Circuit,
    Inductor,
    Resistor,
    TransientAnalysis,
    TransientOptions,
)
from repro.spice.analysis.transient import TransientRun


def rc_circuit() -> Circuit:
    """1 kOhm || 1 uF charged to 1 V: v = exp(-t / 1e-3)."""
    circuit = Circuit("rc order probe")
    circuit.add(Resistor("R1", "a", "0", 1e3))
    circuit.add(Capacitor("C1", "a", "0", 1e-6, ic=1.0))
    return circuit


def lc_circuit() -> Circuit:
    """Lossless 10 mH || 1 uF tank charged to 1 V: v = cos(1e4 t).

    The undamped oscillation keeps the high-order error terms visible for
    many periods (an RC decay is so smooth that BDF-4/5 errors hit the
    float noise floor before a slope can be measured).
    """
    circuit = Circuit("lc order probe")
    circuit.add(Inductor("L1", "a", "0", 10e-3, ic=0.0))
    circuit.add(Capacitor("C1", "a", "0", 1e-6, ic=1.0))
    return circuit


#: order -> (circuit builder, analytic solution, tstop, (h, h/2)).
#: The step pairs keep each order's error well above the float noise
#: floor and well below the stability limit.
ORDER_RECIPES = {
    2: (rc_circuit, lambda t: np.exp(-t / 1e-3), 1e-3, (2e-5, 1e-5)),
    3: (rc_circuit, lambda t: np.exp(-t / 1e-3), 1e-3, (2e-5, 1e-5)),
    4: (lc_circuit, lambda t: np.cos(1e4 * t), 1.2e-3, (2e-5, 1e-5)),
    5: (lc_circuit, lambda t: np.cos(1e4 * t), 1.2e-3, (1e-5, 5e-6)),
}


def pinned_order_options(order: int, h: float) -> TransientOptions:
    """Force BDF-``order`` at a fixed internal step ``h``: the order is
    pinned, the tolerances never reject, and ``dt_min == dt_max == h``
    leaves the controller nothing to adapt (``dt_initial = h / 1024``
    keeps the order-1 startup ramp's error contribution negligible)."""
    return TransientOptions(mode="adaptive", min_order=order,
                            max_order=order, dt_initial=h / 1024,
                            dt_min=h / 1e5, dt_max=h, lte_reltol=1e9,
                            lte_abstol=1e9)


def measured_error(order: int, h: float) -> float:
    builder, analytic, tstop, _ = ORDER_RECIPES[order]
    result = TransientAnalysis(
        builder(), tstop=tstop, tstep=2e-5, use_ic=True,
        timestep=pinned_order_options(order, h)).run()
    return float(np.max(np.abs(result["a"].y - analytic(result.time))))


class TestConvergenceOrder:

    @given(order=st.integers(min_value=2, max_value=5))
    @hyp_settings(max_examples=4, deadline=None)
    def test_step_doubling_slope_matches_selected_order(self, order):
        _, _, _, (coarse, fine) = ORDER_RECIPES[order]
        slope = np.log2(measured_error(order, coarse)
                        / measured_error(order, fine))
        assert abs(slope - order) <= 0.3, (
            f"BDF-{order} measured order {slope:.2f}")

    def test_pinned_order_is_actually_used(self):
        builder, _, tstop, (h, _) = ORDER_RECIPES[4]
        result = TransientAnalysis(
            builder(), tstop=tstop, tstep=2e-5, use_ic=True,
            timestep=pinned_order_options(4, h)).run()
        histogram = result.stats["order_histogram"]
        # Startup ramps 1 -> 2 -> 3 -> 4, then stays pinned at 4.
        assert set(histogram) == {"1", "2", "3", "4"}
        assert histogram["4"] > sum(histogram[k] for k in "123")
        assert (sum(histogram.values())
                == result.stats["steps_accepted"])


class TestSolverCacheCoefficientKey:
    """Regression: the linear-bypass LU cache once keyed on the step size
    alone, so an order change at a matched dt (different integrator
    coefficients, same step) reused stale factors and corrupted the
    waveform.  The cache now keys on ``(c0, c1, gmin)``."""

    H = 2e-8

    def _run(self, max_order: int):
        circuit = Circuit("rc decay")
        circuit.add(Resistor("R1", "a", "0", 1e3))
        circuit.add(Capacitor("C1", "a", "0", 1e-9, ic=3.0))
        options = TransientOptions(
            mode="adaptive", min_order=1, max_order=max_order,
            dt_initial=self.H, dt_min=self.H, dt_max=self.H,
            lte_reltol=1e9, lte_abstol=1e9)
        run = TransientRun(TransientAnalysis(circuit, tstop=2e-6,
                                             tstep=2e-8, use_ic=True,
                                             timestep=options))
        while not run.exhausted:
            run.advance()
        result = run.finish()
        error = float(np.max(np.abs(
            result["a"].y - 3.0 * np.exp(-result.time / 1e-6))))
        return run, result, error

    def test_order_change_at_matched_dt_gets_its_own_factors(self):
        run, result, error = self._run(max_order=2)
        # Both orders really ran, and every step used the same dt ...
        assert set(result.stats["order_histogram"]) == {"1", "2"}
        # Up to round-off from print-point clamping, dt never changed.
        assert result.stats["dt_min"] == pytest.approx(self.H, rel=1e-9)
        assert result.stats["dt_max"] == pytest.approx(self.H, rel=1e-9)
        # ... yet the cache holds one factorisation per coefficient set
        # (a dt-keyed cache could never hold more than one entry here).
        keys = list(run._lu_cache._data)
        assert len(keys) >= 2
        assert len({(c0, c1) for c0, c1, _gmin in keys}) >= 2

    def test_bypass_waveform_is_not_degraded_to_first_order(self):
        _, _, mixed_error = self._run(max_order=2)
        _, _, be_error = self._run(max_order=1)
        # Reusing the backward-Euler factors for the trapezoid steps
        # would drag the mixed run's error up to the BE level.
        assert mixed_error < be_error / 5.0
        assert mixed_error < 2e-3
