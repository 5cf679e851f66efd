"""Fixed-step mode as a preset of the one transient stepping loop.

``mode="fixed"`` used to have a stepping loop of its own.  It now runs
through :meth:`TransientRun.advance` with preset controls, and must stay
bit-identical to the old loop: campaign checkpoints and the paper's
fig. 5 records were produced by it.  :class:`LegacyFixedRun` keeps the
old loop verbatim as the reference implementation, and each case compares
print rows byte for byte and ``stats`` for equality on this machine
(no golden file, so BLAS builds cannot skew the comparison).

The cases are the ones that break under each near-miss version of the
preset's three exactness rules (what counts as a clamped step, what a
clamped step does to the standing step, how a Newton reject restores the
time): the nominal VCO at 3.5 V and 4.5 V control voltage, and the faulty
VCO of LIFT faults 18, 55 and 68, all of which take Newton rejects.
"""

import pytest

from repro.anafault import inject_fault
from repro.cat import CATFlow
from repro.circuits import (VCOParameters, build_vco, build_vco_layout,
                            nominal_transient_settings)
from repro.circuits.library import build_cmos_inverter
from repro.errors import ConvergenceError, SingularMatrixError, TransientError
from repro.spice import SimulationOptions, TransientAnalysis, TransientOptions
from repro.spice.analysis import transient as transient_module
from repro.spice.analysis.newton import solve_newton
from repro.spice.analysis.transient import TransientRun


class LegacyFixedRun(TransientRun):
    """The fixed-step driver as it was before it became a preset."""

    def advance(self) -> bool:
        if self._output_index >= len(self.times):
            return False
        self._advance_fixed()
        self._write(self._output_index, self.state.x)
        self._output_index += 1
        return self._output_index < len(self.times)

    def _advance_fixed(self) -> None:
        """One print interval of the legacy fixed-step driver.

        This is the historical ``_run_fixed`` loop body, verbatim: one
        internal sub-step per print interval, halved on Newton failure and
        grown back gently.  Deliberately bit-identical to the historical
        behaviour (campaign checkpoints rely on it).
        """
        analysis = self.analysis
        options = analysis.options
        state = self.state
        target = self.times[self._output_index]
        while state.time < target - 1e-18 * max(1.0, target):
            # The actual sub-step is the adaptive step clamped to the
            # print target; ``step`` itself keeps the adaptive history so
            # that a tiny clamped final sub-step cannot distort the
            # accepted-step recovery below.
            dt = min(self._step, target - state.time)
            accepted = False
            while not accepted:
                # Integration coefficients: backward Euler for the very
                # first step (damps the inconsistent initial derivative),
                # trapezoidal afterwards.
                if self._first_step_done:
                    order_used = 2
                    state.integ_c0 = 2.0 / dt
                    state.integ_c1 = 1.0
                else:
                    order_used = 1
                    state.integ_c0 = 1.0 / dt
                    state.integ_c1 = 0.0
                state.dt = dt
                saved_x = state.x.copy()
                state.time += dt
                try:
                    if self._linear:
                        self._solve_linear_step()
                        self._newton_iterations += 1
                    else:
                        solve_newton(self.builder, state, x0=saved_x,
                                     max_iterations=options.itl4)
                        self._newton_iterations += \
                            state.last_newton_iterations
                    accepted = True
                except (ConvergenceError, SingularMatrixError) as exc:
                    # Reject: restore and halve the sub-step; the
                    # adaptive step follows the rejection.
                    state.time -= dt
                    state.x = saved_x
                    self._rejected_steps += 1
                    dt *= 0.5
                    self._step = dt
                    if dt < self._min_step:
                        raise TransientError(
                            f"transient step fell below dt_min="
                            f"{self._min_step:g}s at t={state.time:g}s "
                            f"({exc})") from exc
            self.builder.accept_timestep(state)
            self._first_step_done = True
            self._accepted_steps += 1
            self._dt_smallest = min(self._dt_smallest, dt)
            self._dt_largest = max(self._dt_largest, dt)
            self._record_order(order_used, dt)
            # Gentle step recovery towards the print interval, driven
            # only by genuinely accepted adaptive steps (a clamped final
            # sub-step leaves the adaptive step untouched).
            if dt >= self._step and self._step < analysis.tstep:
                self._step = min(self._step * 2.0, analysis.tstep)


def drive(run: TransientRun):
    while run.advance():
        pass
    return run


@pytest.fixture(scope="module")
def vco_faults():
    circuit, layout = build_vco_layout()
    faults = CATFlow(circuit, layout).extract_faults().realistic_faults
    return circuit, {fault.fault_id: fault for fault in faults}


def assert_identical(analysis: TransientAnalysis) -> dict:
    preset = drive(analysis.start())
    legacy = drive(LegacyFixedRun(analysis))
    assert preset.data.tobytes() == legacy.data.tobytes()
    stats = preset.finish().stats
    assert stats == legacy.finish().stats
    assert stats["timestep_mode"] == "fixed"
    return stats


@pytest.mark.parametrize("control_voltage", [3.5, 4.5])
def test_nominal_vco_matches_the_legacy_driver(control_voltage):
    analysis = TransientAnalysis(
        build_vco(VCOParameters(control_voltage=control_voltage)),
        **nominal_transient_settings())
    stats = assert_identical(analysis)
    assert stats["steps_rejected"] > 0
    # BE for the first step, trapezoidal for every step after it.
    assert set(stats["order_histogram"]) == {"1", "2"}
    assert stats["order_histogram"]["1"] == 1


@pytest.mark.parametrize("fault_id", [18, 55, 68])
def test_faulty_vco_matches_the_legacy_driver(vco_faults, fault_id):
    circuit, faults = vco_faults
    analysis = TransientAnalysis(inject_fault(circuit, faults[fault_id]),
                                 tstop=4e-6, tstep=1e-8, use_ic=True)
    stats = assert_identical(analysis)
    assert stats["steps_rejected"] > 0


def record_attempts(monkeypatch) -> list:
    """Record the step size of every Newton attempt of either driver."""
    attempts = []

    def recording(builder, state, _solve=solve_newton, **kwargs):
        attempts.append(state.dt)
        return _solve(builder, state, **kwargs)

    monkeypatch.setattr(transient_module, "solve_newton", recording)
    monkeypatch.setitem(globals(), "solve_newton", recording)
    return attempts


def failing_inverter(dt_min=None) -> TransientAnalysis:
    """An inverter whose Newton solves never converge (``itl4=1``)."""
    return TransientAnalysis(build_cmos_inverter(), tstop=1e-7, tstep=1e-9,
                             use_ic=True,
                             options=SimulationOptions(itl4=1),
                             timestep=TransientOptions(dt_min=dt_min))


def test_default_floor_keeps_the_attempt_sequence(monkeypatch):
    """With the default floor (tstep/256) halving lands on the floor
    exactly, so the preset gives up after the same attempts as the legacy
    driver did."""
    attempts = record_attempts(monkeypatch)
    with pytest.raises(TransientError):
        drive(failing_inverter().start())
    preset = list(attempts)
    attempts.clear()
    with pytest.raises(TransientError):
        drive(LegacyFixedRun(failing_inverter()))
    assert preset == attempts
    assert preset == [1e-9 / 2 ** k for k in range(9)]


def test_unaligned_floor_is_tried_once_then_raises(monkeypatch):
    """A ``dt_min`` that halving cannot hit exactly is attempted once
    before the run gives up (the legacy driver gave up one attempt
    earlier)."""
    dt_min = 3e-12
    attempts = record_attempts(monkeypatch)
    with pytest.raises(TransientError) as excinfo:
        drive(failing_inverter(dt_min).start())
    halvings = [1e-9 / 2 ** k for k in range(9)]
    assert attempts == halvings + [dt_min]
    message = str(excinfo.value)
    assert f"dt_min={dt_min:g}s" in message and "t=0s" in message
