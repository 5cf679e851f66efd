"""Transient analysis with fixed print step and adaptive internal stepping.

Every run steps through one loop (:meth:`TransientRun.steps`); the two
timestep policies of :class:`TransientOptions` are presets of its controls:

``mode="fixed"`` (default)
    The paper's print-step grid: the step starts at and is capped by the
    print interval, every step is clamped to the next print point, a
    Newton failure halves the step and accepted steps double it back.  No
    error control runs (no predictor, no LTE test, no order changes), and
    the order is backward Euler for the first step, trapezoidal after it
    (backward Euler throughout unless ``integration="trap"``).
    Bit-reproducible run to run, which is what the campaign checkpoints key
    on.

``mode="adaptive"``
    A local-truncation-error (LTE) controlled variable-step,
    *variable-order* integrator.  Each accepted step is checked against a
    per-node error tolerance using the classic predictor-corrector
    estimate — a divided-difference polynomial extrapolated through the
    accepted state history is compared against the corrector solution —
    and the next step size follows the standard ``(tol/lte)^(1/(p+1))``
    controller with growth clamps.  On top of the order-2 trap/BE pair the
    driver runs fixed-leading-coefficient BDF (Gear) methods up to order
    ``TransientOptions.max_order`` (default 5): after each accepted step
    the error estimate one order below and above the current order is
    formed from higher divided differences of the history, and the order
    whose controller would allow the largest next step wins (with a bias
    towards staying put and a hold-off after every change).  Print points
    are filled by polynomial interpolation of matching order, so smooth
    intervals are integrated with steps far larger than the print
    interval (fewer Newton solves), while switching edges are refined
    below it at low order.

The linear algebra of every timestep goes through the solver backend
selected for the circuit (:mod:`repro.spice.analysis.backends`): dense
LAPACK below the size threshold, sparse SuperLU above it, overridable via
``solver_backend``.  The choice taken, together with iteration and step
counts, is reported in :attr:`TransientResult.stats`.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ...errors import (AnalysisError, ConvergenceError, SingularMatrixError,
                       TransientError)
from ..netlist import Circuit, normalize_node, GROUND
from ..waveform import Waveform
from .dc import solve_operating_point
from .mna import MNABuilder, SimulationOptions
from .newton import newton_iterations, solve_newton

#: Hard ceiling on the number of print points (guards against pathological
#: ``tstop/tstep`` ratios allocating unbounded trace memory).
MAX_PRINT_POINTS = 5_000_000

#: Recognised :attr:`TransientOptions.mode` values.
TIMESTEP_MODES = ("fixed", "adaptive")

#: Highest supported integration order (BDF-5; BDF-6 is barely stable and
#: never worth its history bookkeeping in practice).
MAX_BDF_ORDER = 5

#: ``alpha_s(k) = sum_{j=1..k} 1/j`` — the fixed leading coefficient of the
#: BDF-k corrector ``x'_n = P'(t_n) + alpha_s/h * (x_n - P(t_n))`` where
#: ``P`` is the degree-k predictor polynomial through the last ``k+1``
#: accepted points (the DASSL formulation; on a uniform grid it reduces to
#: the textbook BDF formulas, and at k=1 to backward Euler on any grid).
_ALPHA_S = {k: sum(1.0 / j for j in range(1, k + 1))
            for k in range(1, MAX_BDF_ORDER + 1)}

#: Accepted steps required between step-size *increases* while running at
#: BDF order k.  Variable-step BDF recurrences lose zero-stability under
#: sustained geometric step growth (the tolerable consecutive-ratio bound
#: shrinks rapidly with order); isolated sqrt(2)-rung jumps separated by
#: this many uniform steps keep the error amplification bounded at every
#: order (measured on analytic references; growth at orders 1-2 is
#: unrestricted, as the legacy trap/BE driver had it).
_BDF_GROW_HOLD = {3: 1, 4: 2, 5: 5}

#: Largest single-step growth ratio at BDF orders >= 3: one quantisation
#: ladder rung (sqrt(2)), with head room so the floor-quantiser still
#: lands on the next rung.
_BDF_GROW_CAP = 1.5

#: Step-size controller ``dt * clamp(SAFETY * (tol/lte)^(1/(p+1)),
#: DT_SHRINK, DT_GROW)`` (a Newton failure halves the step regardless).
DT_GROW = 2.0
DT_SHRINK = 0.1
SAFETY = 0.9

#: Capacity of the linear-bypass path's factorisation LRU cache.
SOLVER_CACHE_SIZE = 16


@dataclass
class TransientOptions:
    """Timestep-control policy of one transient analysis.

    The default (``mode="fixed"``) is a preset of the stepping loop: one
    internal sub-step per print interval, halved on Newton failure, with
    no error control.  The preset overrides the step caps and the order
    range below (see the module docstring); the fields keep their values,
    because a campaign's fingerprint hashes them.  Campaigns pin this mode
    by default so that checkpointed runs stay bit-reproducible across
    resumes (the options travel inside ``CampaignSettings`` and are part
    of the campaign fingerprint).

    ``mode="adaptive"`` enables the LTE controller described in the module
    docstring (predictor-started Newton, interpolated print points, steps
    quantised onto the ``tstep * 2^(k/2)`` ladder); see
    ``docs/integration.md`` for the estimator maths and the knobs.
    """

    #: ``"fixed"`` (legacy print-step grid) or ``"adaptive"`` (LTE control).
    mode: str = "fixed"
    #: Relative LTE tolerance per node voltage.
    lte_reltol: float = 1e-3
    #: Absolute LTE tolerance per node voltage [V].
    lte_abstol: float = 1e-6
    #: Hard floor on the internal step [s]; ``None`` uses
    #: ``tstep * SimulationOptions.min_step_fraction``.  When the controller
    #: is driven to the floor and the step still fails, the run aborts with
    #: :class:`~repro.errors.TransientError` instead of looping towards
    #: denormal step sizes.
    dt_min: float | None = None
    #: Ceiling on the internal step [s]; ``None`` uses ``8 * tstep`` in
    #: adaptive mode (the print interval itself bounds fixed mode).
    dt_max: float | None = None
    #: First internal step [s] of an adaptive run; ``None`` uses
    #: ``tstep * SimulationOptions.min_step_fraction``.  The first step has
    #: no history to estimate LTE from, so it is taken small and the
    #: controller grows out of it within a few steps; an uncontrolled
    #: full-``tstep`` backward-Euler first step would otherwise dominate
    #: the global error of the whole run.  (The fixed preset always
    #: starts at ``tstep``.)
    dt_initial: float | None = None
    #: Highest integration order the adaptive order controller may select:
    #: 1 = backward Euler, 2 = trapezoidal (or BDF-2 under
    #: ``SimulationOptions.integration="gear"``), 3..5 = BDF-k.  Fixed mode
    #: and ``integration="be"`` ignore it.
    max_order: int = MAX_BDF_ORDER
    #: Lowest order the controller may select once the startup ramp has
    #: built enough history (the ramp itself always starts at order 1).
    #: Pinning ``min_order == max_order == k`` forces BDF-k, which is how
    #: the convergence-order tests isolate a single method.
    min_order: int = 1

    def validate(self) -> None:
        """Raise :class:`~repro.errors.AnalysisError` on unusable knobs."""
        if self.mode not in TIMESTEP_MODES:
            raise AnalysisError(
                f"unknown timestep mode {self.mode!r}; expected one of "
                f"{', '.join(TIMESTEP_MODES)}")
        if self.lte_reltol <= 0.0 or self.lte_abstol <= 0.0:
            raise AnalysisError("LTE tolerances must be positive")
        if self.dt_min is not None and self.dt_min <= 0.0:
            raise AnalysisError("dt_min must be positive")
        if self.dt_max is not None and self.dt_max <= 0.0:
            raise AnalysisError("dt_max must be positive")
        if self.dt_initial is not None and self.dt_initial <= 0.0:
            raise AnalysisError("dt_initial must be positive")
        if (self.dt_min is not None and self.dt_max is not None
                and self.dt_min > self.dt_max):
            raise AnalysisError("dt_min must not exceed dt_max")
        if not 1 <= self.min_order <= self.max_order <= MAX_BDF_ORDER:
            raise AnalysisError(
                f"need 1 <= min_order <= max_order <= {MAX_BDF_ORDER}, got "
                f"min_order={self.min_order}, max_order={self.max_order}")


class _LRUCache:
    """Tiny least-recently-used mapping for per-step-size solver caches.

    The adaptive driver produces a changing set of step sizes; keeping one
    frozen factorisation per size ever seen would grow without bound on
    long runs, so lookups refresh recency and insertions evict the oldest
    entry beyond ``maxsize``.
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            self._data.move_to_end(key)
        except KeyError:
            return None
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class _History:
    """The newest accepted points of one run and their divided differences.

    Keeps at most ``capacity`` points (``max_order + 2``: the highest-order
    predictor needs ``max_order + 1``, the raise-order estimate one more)
    and the triangular table of their divided differences, stored by
    column: ``_columns[k][m]`` is the order-``m`` difference over points
    ``k-m .. k``.  Each accepted point adds one column, O(k*n), through the
    recurrence ``dd[j..k] = (dd[j+1..k] - dd[j..k-1]) / (t_k - t_j)``, so
    every entry is computed once.  The predictors, the LTE test, the order
    etas and the dense output all read this one table.

    With ``states=False`` only the times are kept: the fixed preset's
    order ramp needs nothing but the count of accepted points.
    """

    def __init__(self, capacity: int, t: float, x: np.ndarray,
                 states: bool = True):
        self.capacity = capacity
        #: Accepted times, oldest first.
        self.times: list[float] = []
        self._columns: list[list[np.ndarray]] | None = [] if states else None
        self.push(t, x)

    def __len__(self) -> int:
        return len(self.times)

    def push(self, t: float, x: np.ndarray) -> None:
        """Append the accepted point ``(t, x)``, dropping the oldest one
        beyond the capacity."""
        times, columns = self.times, self._columns
        if len(times) == self.capacity:
            times.pop(0)
            if columns is not None:
                columns.pop(0)
        times.append(t)
        if columns is None:
            return
        column = [x.copy()]
        if columns:
            previous = columns[-1]
            for level in range(1, len(times)):
                column.append((column[level - 1] - previous[level - 1])
                              / (t - times[-1 - level]))
        columns.append(column)

    def difference(self, m: int) -> np.ndarray:
        """Order-``m`` divided difference over the newest ``m+1`` points
        (an estimate of ``x^(m)/m!``)."""
        return self._columns[-1][m]

    def newton(self, t: float, points: int,
               slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """Value (and, with ``slope``, derivative) at ``t`` of the Newton
        polynomial through the newest ``points`` points, by Horner's rule
        from the oldest of them."""
        columns, times = self._columns, self.times
        first = len(times) - points
        value = columns[-1][points - 1].copy()
        deriv = np.zeros_like(value) if slope else None
        for i in range(points - 2, -1, -1):
            span = t - times[first + i]
            if slope:
                deriv = deriv * span + value
            value = value * span + columns[first + i][i]
        return value, deriv

    def interpolate(self, t: float, order: int) -> np.ndarray:
        """Dense output at ``t`` inside the newest step, matching its
        order: quadratic through the newest three points at orders <= 2
        (linear while there are only two), degree ``order`` above."""
        return self.newton(t, min(max(order, 2) + 1, len(self.times)))[0]


def quantize_step(dt: float, tstep: float) -> float:
    """Snap ``dt`` down onto the geometric ladder ``tstep * 2^(k/2)``.

    The adaptive controller proposes a continuum of step sizes; quantising
    them onto a sparse geometric grid makes repeated step sizes common, so
    the per-step-size factorisation caches actually hit (at a worst-case
    cost of ``sqrt(2)`` in step size, well inside the controller's own
    safety margin).
    """
    if dt <= 0.0 or tstep <= 0.0:
        return dt
    k = math.floor(2.0 * math.log2(dt / tstep))
    quantized = tstep * 2.0 ** (k / 2.0)
    # Guard the floor direction against log/pow round-off.
    while quantized > dt * (1.0 + 1e-12):
        k -= 1
        quantized = tstep * 2.0 ** (k / 2.0)
    return quantized


class TransientResult:
    """Node voltages versus time.

    Signals can be read with ``result["11"]``, ``result["v(11)"]`` or
    :meth:`waveform`, all returning :class:`~repro.spice.waveform.Waveform`
    objects.  Kernel telemetry of the run (Newton iterations, accepted and
    rejected internal steps, linear-bypass flag) is available in
    :attr:`stats`.
    """

    def __init__(self, time: np.ndarray, node_traces: dict[str, np.ndarray],
                 branch_traces: dict[str, np.ndarray] | None = None,
                 stats: dict | None = None):
        self.time = np.asarray(time, dtype=float)
        self._nodes = node_traces
        self._branches = branch_traces or {}
        self.stats = dict(stats or {})

    @staticmethod
    def _canonical(signal: str) -> str:
        text = signal.strip().lower()
        if text.startswith("v(") and text.endswith(")"):
            text = text[2:-1]
        return normalize_node(text)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    @property
    def newton_iterations(self) -> int:
        """Total linear solves spent across the run (workload metric)."""
        return int(self.stats.get("newton_iterations", 0))

    def waveform(self, signal: str) -> Waveform:
        key = self._canonical(signal)
        if key == GROUND:
            return Waveform(self.time, np.zeros_like(self.time), name="v(0)")
        if key in self._nodes:
            return Waveform(self.time, self._nodes[key], name=f"v({key})")
        if key in self._branches:
            return Waveform(self.time, self._branches[key], name=f"i({key})",
                            unit="A")
        raise AnalysisError(f"no recorded signal named {signal!r}")

    def current(self, device_name: str) -> Waveform:
        key = device_name.strip().lower()
        if key not in self._branches:
            raise AnalysisError(f"no recorded branch current for {device_name!r}")
        return Waveform(self.time, self._branches[key], name=f"i({key})", unit="A")

    def __getitem__(self, signal: str) -> Waveform:
        return self.waveform(signal)

    def final_voltages(self) -> dict[str, float]:
        return {name: float(values[-1]) for name, values in self._nodes.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"TransientResult({len(self.time)} points, "
                f"{len(self._nodes)} nodes)")


class TransientAnalysis:
    """SPICE ``.tran tstep tstop`` equivalent.

    Parameters
    ----------
    circuit:
        Circuit to simulate.
    tstop:
        Final time [s].
    tstep:
        Print (output) interval [s].
    use_ic:
        Skip the DC operating point and start from the supplied
        ``initial_conditions`` (defaulting to 0 V everywhere), mirroring the
        SPICE ``UIC`` keyword.  This is how the paper's VCO simulations are
        started ("after the activation of the supply voltage").
    initial_conditions:
        Mapping node name -> initial voltage, honoured when ``use_ic`` is
        set.
    solver_backend:
        Linear-solver backend selection: ``"auto"`` (default, by matrix
        size), ``"dense"`` or ``"sparse"``; see
        :mod:`repro.spice.analysis.backends`.  The backend actually used is
        recorded in ``TransientResult.stats["solver_backend"]``.
    record_nodes:
        ``None`` (default) records every node and — subject to
        ``record_currents`` — every branch current, materialising the full
        unknowns × time trace matrix.  A sequence of node names switches to
        *observed-node streaming*: only those nodes are recorded at print
        resolution, cutting trace memory from ``O(size × points)`` to
        ``O(observed × points)`` (the campaign layer uses this for its
        comparator nodes).  Unknown node names raise
        :class:`~repro.errors.AnalysisError` up front.
    timestep:
        Timestep-control policy: a :class:`TransientOptions` instance, a
        mode string (``"fixed"``/``"adaptive"``) as a shorthand for
        ``TransientOptions(mode=...)``, or ``None`` for the fixed-step
        default.  See ``docs/integration.md``.

    Fully linear circuits (R/C/L plus independent and linear controlled
    sources) bypass Newton iteration entirely: each distinct internal step
    size is factorised once and the factors (LAPACK LU or SuperLU,
    depending on the backend) are reused across all timesteps taken with
    that step size.
    """

    def __init__(self, circuit: Circuit, tstop: float, tstep: float,
                 options: SimulationOptions | None = None,
                 use_ic: bool = False,
                 initial_conditions: dict[str, float] | None = None,
                 record_currents: bool = True,
                 solver_backend: str | None = None,
                 record_nodes=None,
                 timestep: TransientOptions | str | None = None):
        if tstop <= 0.0 or tstep <= 0.0:
            raise AnalysisError("tstop and tstep must be positive")
        if tstep > tstop:
            raise AnalysisError("tstep must not exceed tstop")
        self.circuit = circuit
        self.tstop = float(tstop)
        self.tstep = float(tstep)
        self.options = options or SimulationOptions()
        self.use_ic = use_ic
        self.initial_conditions = dict(initial_conditions or {})
        self.record_currents = record_currents
        self.solver_backend = solver_backend
        self.record_nodes = (None if record_nodes is None
                             else tuple(record_nodes))
        if timestep is None:
            timestep = TransientOptions()
        elif isinstance(timestep, str):
            timestep = TransientOptions(mode=timestep)
        timestep.validate()
        self.timestep = timestep

    # ------------------------------------------------------------------
    def _initial_solution(self, builder: MNABuilder) -> np.ndarray:
        if self.use_ic:
            x0 = np.zeros(builder.size)
            # Device-level initial conditions (e.g. ``ic=`` on capacitors
            # with a grounded negative terminal) seed the node voltages.
            for device in builder.devices:
                initial = getattr(device, "initial_voltage", None)
                if initial is None:
                    continue
                pos, neg = device.nodes[0], device.nodes[1]
                if neg == GROUND and pos in builder.node_index:
                    x0[builder.node_index[pos]] = float(initial)
            for node, value in self.initial_conditions.items():
                node = normalize_node(node)
                if node in builder.node_index:
                    x0[builder.node_index[node]] = float(value)
            return x0
        return solve_operating_point(builder, self.initial_conditions or None)

    def print_grid(self) -> np.ndarray:
        """The output time points: multiples of ``tstep`` with the final
        point clamped to ``tstop``.

        A ``tstop`` that is not an integer multiple of ``tstep`` gets an
        extra final point at exactly ``tstop`` (the previous behaviour
        rounded the point count and could silently stop short of ``tstop``,
        flipping detection verdicts near the end of a test).
        """
        # The small relative fudge absorbs binary floating-point error in
        # tstop/tstep (e.g. 4e-6/1e-8 = 399.99999999999994).
        ratio = self.tstop / self.tstep
        num_full = int(math.floor(ratio + 1e-9))
        if num_full + 2 > MAX_PRINT_POINTS:
            raise AnalysisError(
                f"transient print grid would need {num_full + 1} points "
                f"(tstop={self.tstop:g}, tstep={self.tstep:g}); "
                f"the limit is {MAX_PRINT_POINTS}")
        times = self.tstep * np.arange(num_full + 1)
        remainder = self.tstop - float(times[-1])
        if remainder > 1e-9 * self.tstep:
            if remainder < self.tstep * self.options.min_step_fraction:
                warnings.warn(
                    f"tstop={self.tstop:g} leaves a final print interval of "
                    f"{remainder:g}s, far below tstep={self.tstep:g}; "
                    "the grid is pathological and the last step may not "
                    "converge", stacklevel=2)
            times = np.append(times, self.tstop)
        else:
            # Integer ratio up to floating-point drift: land exactly on tstop.
            times[-1] = self.tstop
        return times

    def run(self) -> TransientResult:
        run = TransientRun(self)
        while run.advance():
            pass
        return run.finish()

    def start(self) -> "TransientRun":
        """Begin an incrementally drivable run (see :class:`TransientRun`).

        ``run()`` is exactly ``start()`` driven to completion, so a caller
        advancing the returned object print interval by print interval (the
        batched campaign driver does) performs the same arithmetic in the
        same order as a plain ``run()``.
        """
        return TransientRun(self)

    # ------------------------------------------------------------------
    # Timestep drivers
    # ------------------------------------------------------------------
    def _dt_floor(self) -> float:
        """Hard floor on the internal step [s] (the ``dt_min`` knob)."""
        if self.timestep.dt_min is not None:
            return self.timestep.dt_min
        return self.tstep * self.options.min_step_fraction

    def _recorded_columns(self, builder: MNABuilder):
        """Resolve ``record_nodes`` to ``(column indices, [(name,
        is_branch)])`` or ``None`` for full recording.

        Names resolve against the node index first, then against device
        branch currents (so a campaign observing a source current keeps
        working under streaming).  Ground is dropped silently (it is
        synthesised by :meth:`TransientResult.waveform`); any other unknown
        signal is an error now rather than after the whole run.
        """
        if self.record_nodes is None:
            return None
        branch_columns = {device.name.lower(): device.branch_index
                          for device in builder.devices
                          if device.branch_count() > 0}
        indices: list[int] = []
        names: list[tuple[str, bool]] = []
        seen: set[str] = set()
        for node in self.record_nodes:
            key = normalize_node(str(node))
            if key == GROUND or key in seen:
                continue
            if key in builder.node_index:
                indices.append(builder.node_index[key])
                names.append((key, False))
            elif key in branch_columns:
                indices.append(branch_columns[key])
                names.append((key, True))
            else:
                raise AnalysisError(
                    f"record_nodes names unknown signal {node!r} "
                    f"(circuit has {len(builder.node_index)} nodes)")
            seen.add(key)
        return np.asarray(indices, dtype=int), names


class TransientRun:
    """One transient analysis, drivable print interval by print interval.

    ``TransientAnalysis.run()`` is literally this object driven to
    completion.  Its stepping loop is the generator :meth:`steps`, which
    yields wherever a Newton solve is needed: :meth:`advance` serves those
    solves one at a time, and the batched fault-campaign driver of
    :mod:`repro.spice.analysis.batched` serves the Newton iterations of
    several runs in lockstep rounds (one fused device evaluation, one
    stacked solve) that hand each run bitwise the floats it computes
    alone.  Either way each run performs per-variant arithmetic that is
    operation-for-operation identical to running its analysis serially —
    the foundation of the batched-vs-serial differential guarantee.

    Construction solves the initial state and allocates the output buffers;
    :meth:`advance` integrates until the next print row is recorded;
    :meth:`finish` assembles the :class:`TransientResult`.  ``finish`` may
    be called before the grid is exhausted (rows past the cursor stay
    zero), which is how early-aborted batch variants surface their partial
    statistics.

    One :meth:`advance` takes accepted steps until *at least one* new
    print row has been produced.  Fixed mode clamps every step to the next
    print point, so it emits exactly one row per call; ``mode="adaptive"``
    integrates on its own internal grid and fills print points by
    interpolation, so a single call may emit several rows (a large step
    interpolating across many print intervals) and :attr:`output_index`
    jumps accordingly.  Lockstep drivers must therefore only advance a run
    whose ``output_index`` has not yet passed the row they are about to
    read.
    """

    def __init__(self, analysis: TransientAnalysis):
        """Solve the initial state of ``analysis`` and allocate buffers."""
        self.analysis = analysis
        builder = MNABuilder(analysis.circuit, analysis.options,
                             solver_backend=analysis.solver_backend)
        self.builder = builder

        x0 = analysis._initial_solution(builder)
        state = builder.new_state("tran")
        state.use_ic = analysis.use_ic
        state.x = x0.copy()
        state.time = 0.0
        builder.init_state(state)
        self.state = state

        self.times = analysis.print_grid()
        num_outputs = len(self.times)
        select = analysis._recorded_columns(builder)
        self._select = select
        if select is None:
            # One row per print point; node/branch traces are column views.
            self.data = np.zeros((num_outputs, builder.size))
        else:
            # Observed-node streaming: keep only the selected columns.
            self.data = np.zeros((num_outputs, len(select[0])))
        self.data[0] = state.x if select is None else state.x[select[0]]

        topts = analysis.timestep
        adaptive = topts.mode == "adaptive"
        integration = analysis.options.integration.lower()
        self._use_trap = integration.startswith("trap")
        if not adaptive:
            # Fixed mode is a preset of the one stepping loop: start at and
            # cap by the print interval, clamp to every print point, double
            # back after a halving, BE then trap (BE under "gear"/"be").
            topts = replace(topts, dt_initial=analysis.tstep,
                            dt_max=analysis.tstep, min_order=1,
                            max_order=2 if self._use_trap else 1)
        #: The loop's effective controls (the fixed preset or the options).
        self._topts = topts
        #: Predictor (also the Newton guess), LTE test, order controller,
        #: print interpolation, step quantisation and a Newton reject that
        #: restores the saved time.  Fixed mode clamps every step to the
        #: next print point and subtracts a rejected step back off
        #: (``(t + dt) - dt`` can miss ``t`` by an ulp, so swapping either
        #: rule moves the step sequence of existing records).
        self._error_control = adaptive
        #: Order ceiling by method ladder: "trap" (default) runs
        #: BE/trap/BDF-3..5, "gear"/"bdf" runs BE/BDF-2..5, anything else
        #: ("be") is pinned to backward Euler as it always was.
        if self._use_trap or integration in ("gear", "bdf"):
            self._max_order = topts.max_order
        else:
            self._max_order = 1
        self._min_order = min(topts.min_order, self._max_order)
        self._min_step = analysis._dt_floor()
        self._first_step_done = False
        self._linear = builder.is_linear
        self._lu_cache = _LRUCache(SOLVER_CACHE_SIZE)
        self._newton_iterations = 0
        self._accepted_steps = 0
        self._rejected_steps = 0
        self._dt_smallest = math.inf
        self._dt_largest = 0.0
        self._output_index = 1
        tstop = float(self.times[-1])
        self._tstop = tstop
        self._eps = 1e-12 * max(analysis.tstep, tstop)
        dt_cap = topts.dt_max if topts.dt_max is not None \
            else 8.0 * analysis.tstep
        self._dt_cap = max(dt_cap, self._min_step)
        #: Accepted points and their divided differences (times only in
        #: fixed mode, which reads nothing but their count).
        self._history = _History(self._max_order + 2, 0.0, state.x,
                                 states=adaptive)
        if topts.dt_initial is not None:
            step = topts.dt_initial
        else:
            step = analysis.tstep * analysis.options.min_step_fraction
        self._step = min(max(step, self._min_step), self._dt_cap)
        self._last_ratio = 0.0
        #: Order the controller wants next (effective order additionally
        #: ramps with the available history).
        self._desired_order = max(min(2, self._max_order), self._min_order)
        #: Accepted steps to wait before the next order change is allowed.
        self._order_hold = 0
        self._lte_rejects_in_row = 0
        self._steps_since_grow = 0
        self._last_accepted_dt: float | None = None
        # Telemetry: accepted steps and accumulated step size per order,
        # plus the number of order transitions between accepted steps.
        self._order_counts: dict[int, int] = {}
        self._order_dt_sum: dict[int, float] = {}
        self._order_changes = 0
        self._last_order: int | None = None

    # ------------------------------------------------------------------
    @property
    def output_index(self) -> int:
        """Index of the next print row to be produced by :meth:`advance`."""
        return self._output_index

    @property
    def exhausted(self) -> bool:
        """True once every print row has been produced."""
        return self._output_index >= len(self.times)

    def signal_column(self, signal: str) -> int | None:
        """Column of ``signal`` in :attr:`data` rows, ``None`` for ground.

        Resolves node names first, then device branch currents — the same
        lookup order as :meth:`TransientAnalysis._recorded_columns` and
        :meth:`TransientResult.waveform`, so a streaming batch driver reads
        exactly the samples a serial run would hand the comparator.
        """
        key = normalize_node(str(signal))
        if key == GROUND:
            return None
        if self._select is not None:
            for column, (name, _is_branch) in enumerate(self._select[1]):
                if name == key:
                    return column
            raise AnalysisError(
                f"signal {signal!r} is not among the recorded columns")
        if key in self.builder.node_index:
            return self.builder.node_index[key]
        for device in self.builder.devices:
            if device.name.lower() == key and device.branch_count() > 0:
                return device.branch_index
        raise AnalysisError(
            f"signal {signal!r} matches no node or branch current")

    # ------------------------------------------------------------------
    def _write(self, output_index: int, x: np.ndarray) -> None:
        self.data[output_index] = x if self._select is None else \
            x[self._select[0]]

    # ------------------------------------------------------------------
    # Order and error-control helpers of the stepping loop
    # ------------------------------------------------------------------
    def _effective_order(self) -> int:
        """Order actually run next, ramping with the available history.

        Trap (order 2) needs two accepted points; BDF-k needs ``k+1`` for
        its predictor polynomial.  The very first step is always backward
        Euler (it damps the inconsistent initial derivative), in both
        timestep modes.
        """
        if not self._first_step_done:
            return 1
        avail = len(self._history)
        k = min(max(self._desired_order, self._min_order), self._max_order)
        while k > 1 and avail < self._min_history(k):
            k -= 1
        return k

    def _min_history(self, order: int) -> int:
        """Accepted history points required to run at ``order``."""
        if order == 2 and self._use_trap:
            return 2
        return order + 1

    def _method_for(self, order: int) -> str:
        """Integration method implementing ``order``: be / trap / bdf."""
        if order == 1:
            return "be"
        if order == 2 and self._use_trap:
            return "trap"
        return "bdf"

    def _cap_order(self, ceiling: int) -> None:
        """Clamp the desired order (history invalidation heuristics)."""
        ceiling = max(ceiling, self._min_order)
        if self._desired_order > ceiling:
            self._desired_order = ceiling
            self._order_hold = 2

    def _record_order(self, order: int, dt: float) -> None:
        self._order_counts[order] = self._order_counts.get(order, 0) + 1
        self._order_dt_sum[order] = self._order_dt_sum.get(order, 0.0) + dt
        if self._last_order is not None and order != self._last_order:
            self._order_changes += 1
        self._last_order = order

    def _lte_coefficient(self, method: str, order: int, dt: float) -> float:
        """Factor turning the corrector-predictor difference of a step of
        size ``dt`` into its local truncation error.

        It follows from the error terms of both polynomials over the
        actual (non-uniform) history, ``h1``/``h2`` being the previous
        steps:

        * backward Euler: ``h / (2h + h1)``;
        * trapezoidal: ``h^2 / (h^2 + 2(h+h1)(h+h1+h2))``;
        * BDF-k: the predictor misses the solution by the interpolation
          remainder ``x^(k+1)/(k+1)! * prod(t_n - t_hist)`` while the
          corrector's LTE is ``num = h^(k+1)/((k+1)*alpha_s(k)) *
          x^(k+1)``, so the factor is ``num / (prod/(k+1)! + num)`` (which
          reduces to the two above at orders 1/2 on their own methods).
        """
        times = self._history.times
        if method == "be":
            return dt / (2.0 * dt + (times[-1] - times[-2]))
        if method == "trap":
            h1 = times[-1] - times[-2]
            h2 = times[-2] - times[-3]
            return dt * dt / (dt * dt + 2.0 * (dt + h1) * (dt + h1 + h2))
        t_new = self.state.time
        prod = 1.0
        for i in range(1, order + 2):
            prod *= t_new - times[-i]
        num = dt ** (order + 1) / ((order + 1) * _ALPHA_S[order])
        return num / (prod / math.factorial(order + 1) + num)

    def _lte_ratio(self, coefficient: float, corrected: np.ndarray,
                   predicted: np.ndarray, previous: np.ndarray) -> float:
        """Worst per-node ratio of estimated LTE (``coefficient`` times the
        corrector-predictor difference) to tolerance.  Only node-voltage
        rows are tested (per-node control); branch currents follow the
        nodes they connect."""
        topts = self._topts
        nodes = self.builder.num_nodes
        if nodes == 0:
            return 0.0
        error = coefficient * np.abs(corrected[:nodes] - predicted[:nodes])
        reference = np.maximum(np.abs(corrected[:nodes]),
                               np.abs(previous[:nodes]))
        tolerance = topts.lte_reltol * reference + topts.lte_abstol
        return float(np.max(error / tolerance))

    def _order_eta(self, order: int, dt: float) -> float:
        """Step-growth factor order ``order`` would have allowed for the
        just-accepted step, from divided differences of the history
        (including the new point), clamped to the controller's own
        ``[DT_SHRINK, DT_GROW]`` range.

        The clamp is load-bearing: once a method meets tolerance so
        comfortably that its controller saturates at ``DT_GROW``, *every*
        order saturates and the comparison reports a tie — so wide-open
        tolerances (or a step pinned at ``dt_max``) never flap the order.
        """
        topts = self._topts
        if len(self._history) < order + 2:
            return 0.0
        dd = self._history.difference(order + 1)
        if order == 1:
            # BE: LTE = h^2/2 * x'' and x'' ~ 2*dd2.
            weight = dt * dt
        elif order == 2 and self._use_trap:
            # trap: LTE = h^3/12 * x''' and x''' ~ 6*dd3.
            weight = dt ** 3 / 2.0
        else:
            # BDF-k: LTE = h^(k+1)/((k+1)*alpha_s) * x^(k+1),
            # x^(k+1) ~ (k+1)! * dd_(k+1).
            weight = dt ** (order + 1) * math.factorial(order) \
                / _ALPHA_S[order]
        nodes = self.builder.num_nodes
        if nodes == 0:
            return DT_GROW
        x = self.state.x
        error = weight * np.abs(dd[:nodes])
        tolerance = topts.lte_reltol * np.abs(x[:nodes]) + topts.lte_abstol
        ratio = float(np.max(error / tolerance))
        if ratio <= 0.0:
            return DT_GROW
        eta = SAFETY * ratio ** (-1.0 / (order + 1))
        return min(max(eta, DT_SHRINK), DT_GROW)

    #: Advantage factor a neighbouring order must show over the current
    #: one before the controller moves (hysteresis against order flapping).
    ORDER_BIAS = 1.2

    def _consider_order_change(self, order: int, dt: float,
                               clamped: bool) -> None:
        """Pick the order of the next step after an accepted one.

        Raising is only considered when the accepted step ran at the
        controller's own size (neither clamped to a print target/tstop nor
        sitting at ``dt_max`` — a capped step gains nothing from a higher
        order, and the wide-open-tolerance regime keeps its exact legacy
        trap arithmetic this way).
        """
        if self._order_hold > 0:
            self._order_hold -= 1
            return
        eta_keep = self._order_eta(order, dt)
        if eta_keep <= 0.0:
            return
        best_order, best_eta = order, eta_keep
        if order > max(1, self._min_order):
            eta_down = self._order_eta(order - 1, dt)
            if eta_down > best_eta * self.ORDER_BIAS:
                best_order, best_eta = order - 1, eta_down
        can_raise = (not clamped
                     and order < self._max_order
                     and dt < self._dt_cap * (1.0 - 1e-12)
                     and len(self._history) >= order + 3)
        if can_raise:
            eta_up = self._order_eta(order + 1, dt)
            if eta_up > best_eta * self.ORDER_BIAS:
                best_order, best_eta = order + 1, eta_up
        if best_order != order:
            self._desired_order = best_order
            self._order_hold = best_order + 1
        else:
            self._desired_order = order

    def advance(self) -> bool:
        """Take accepted steps until at least one new print row is emitted.

        Returns ``True`` while further print rows remain (call again),
        ``False`` once the grid is exhausted.  Raises
        :class:`TransientError` (or :class:`SingularMatrixError` /
        :class:`ConvergenceError` from deeper layers) exactly as the
        one-shot ``run()`` would; the run is dead afterwards.

        This is :meth:`steps` driven alone: each Newton solve it asks for
        is one :func:`~repro.spice.analysis.newton.solve_newton` call.
        """
        steps = self.steps()
        try:
            guess = next(steps)
            while True:
                try:
                    solve_newton(self.builder, self.state, x0=guess,
                                 max_iterations=self.analysis.options.itl4)
                except (ConvergenceError, SingularMatrixError) as exc:
                    guess = steps.throw(exc)
                else:
                    guess = steps.send(None)
        except StopIteration as done:
            return done.value

    def iterations(self):
        """:meth:`advance` at Newton-iteration granularity, as a generator.

        Each Newton solve :meth:`steps` asks for runs as
        :func:`~repro.spice.analysis.newton.newton_iterations` (with the
        limit and the failures :meth:`advance` passes back), so this
        generator yields wherever the next linearisation of
        :attr:`builder` around ``state.x`` must be built and solved and
        takes the solution back (or the solve's
        :class:`SingularMatrixError` thrown in).  The batched transient
        serves the iterations of several runs in lockstep rounds
        (:meth:`~repro.spice.analysis.newton.NewtonRound.drive`).  The
        generator returns and raises what :meth:`advance` does.
        """
        steps = self.steps()
        try:
            guess = next(steps)
            while True:
                try:
                    yield from newton_iterations(
                        self.builder, self.state, x0=guess,
                        max_iterations=self.analysis.options.itl4)
                except (ConvergenceError, SingularMatrixError) as exc:
                    guess = steps.throw(exc)
                else:
                    guess = steps.send(None)
        except StopIteration as done:
            return done.value

    def steps(self):
        """The stepping loop of one :meth:`advance`, as a generator.

        This is the one stepping loop of both timestep modes (fixed mode
        is a preset of its controls, see :meth:`__init__`).  Each attempt
        consults :meth:`_effective_order`, BDF steps publish the predictor
        polynomial to the device stamps through the simulation state, and
        under error control each accepted step is LTE-tested and lets the
        order controller reconsider.

        Wherever a step needs the nonlinear system solved, the generator
        yields the initial guess: the driver runs the Newton iteration on
        :attr:`builder` and :attr:`state` from that guess (``itl4``
        iterations at most) and sends ``None`` back, or throws in the
        :class:`ConvergenceError`/:class:`SingularMatrixError` it raised.
        :meth:`advance` solves with
        :func:`~repro.spice.analysis.newton.solve_newton`, and
        :meth:`iterations` expands each solve into its Newton iterations
        for the lockstep rounds of the batched transient.
        Fully linear circuits never yield.  The generator returns what
        :meth:`advance` returns.
        """
        analysis = self.analysis
        topts = self._topts
        state = self.state
        history = self._history
        times = self.times
        tstop = self._tstop
        eps = self._eps
        dt_floor = self._min_step
        emitted = False

        while not emitted and state.time < tstop - eps:
            dt = min(self._step, tstop - state.time)
            if not self._error_control and self._output_index < len(times):
                dt = min(dt, times[self._output_index] - state.time)
            clamped = dt < self._step
            while True:
                order = self._effective_order()
                method = self._method_for(order)
                # BDF always has its order+1 points (_effective_order).
                predicted = slope = None
                if self._error_control and len(history) > order:
                    predicted, slope = history.newton(
                        state.time + dt, order + 1, slope=method == "bdf")
                if method == "bdf":
                    state.integ_c0 = _ALPHA_S[order] / dt
                    state.integ_c1 = 0.0
                    state.integ_pred_x = predicted
                    state.integ_pred_dx = slope
                else:
                    state.integ_pred_x = None
                    state.integ_pred_dx = None
                    if method == "trap":
                        state.integ_c0 = 2.0 / dt
                        state.integ_c1 = 1.0
                    else:
                        state.integ_c0 = 1.0 / dt
                        state.integ_c1 = 0.0
                state.dt = dt
                saved_time = state.time
                saved_x = state.x.copy()
                state.time = saved_time + dt
                try:
                    if self._linear:
                        self._solve_linear_step()
                        self._newton_iterations += 1
                    else:
                        guess = saved_x
                        if predicted is not None:
                            guess = predicted
                        yield guess
                        self._newton_iterations += \
                            state.last_newton_iterations
                except (ConvergenceError, SingularMatrixError) as exc:
                    if self._error_control:
                        state.time = saved_time
                    else:
                        state.time -= dt
                    state.x = saved_x
                    self._rejected_steps += 1
                    # A Newton failure usually marks a discontinuity; the
                    # polynomial history across it is worthless, so drop
                    # back to the legacy pair while re-trying smaller.
                    self._cap_order(2 if self._use_trap else 1)
                    if dt <= dt_floor * (1.0 + 1e-9):
                        detail = (f"last LTE ratio {self._last_ratio:.3g}, "
                                  if self._error_control else "")
                        raise TransientError(
                            f"{topts.mode} transient step hit the dt_min="
                            f"{dt_floor:g}s floor at t={state.time:g}s "
                            f"({detail}{exc})") from exc
                    dt = max(0.5 * dt, dt_floor)
                    self._step = dt
                    clamped = False
                    continue
                ratio = 0.0
                if predicted is not None:
                    ratio = self._lte_ratio(
                        self._lte_coefficient(method, order, dt), state.x,
                        predicted, saved_x)
                    self._last_ratio = ratio
                if ratio > 1.0:
                    if dt <= dt_floor * (1.0 + 1e-9):
                        # The floor forbids further refinement; accept the
                        # step rather than looping forever (the tolerance
                        # is advisory at the floor, and matches SPICE
                        # practice of integrating through discontinuities
                        # at the minimum step).
                        break
                    state.time = saved_time
                    state.x = saved_x
                    self._rejected_steps += 1
                    self._lte_rejects_in_row += 1
                    if self._lte_rejects_in_row >= 2:
                        # Repeated LTE rejects mean the high-order history
                        # no longer describes the waveform (sharp edge).
                        self._cap_order(2 if self._use_trap else 1)
                    shrink = SAFETY * ratio ** (-1.0 / (order + 1))
                    shrink = min(max(shrink, DT_SHRINK), 0.5)
                    dt = max(dt * shrink, dt_floor)
                    dt = max(quantize_step(dt, analysis.tstep), dt_floor)
                    self._step = dt
                    clamped = False
                    continue
                break

            self.builder.accept_timestep(state)
            state.integ_pred_x = None
            state.integ_pred_dx = None
            self._first_step_done = True
            self._lte_rejects_in_row = 0
            if (self._last_accepted_dt is not None
                    and dt > self._last_accepted_dt * (1.0 + 1e-12)):
                self._steps_since_grow = 0
            else:
                self._steps_since_grow += 1
            self._last_accepted_dt = dt
            self._accepted_steps += 1
            self._dt_smallest = min(self._dt_smallest, dt)
            self._dt_largest = max(self._dt_largest, dt)
            self._record_order(order, dt)

            history.push(state.time, state.x)

            # Print points covered by this step: interpolate (or copy the
            # endpoint when the step landed on one).
            while (self._output_index < len(times)
                   and times[self._output_index] <= state.time + eps):
                t_out = times[self._output_index]
                if t_out >= state.time - eps:
                    self._write(self._output_index, state.x)
                else:
                    self._write(self._output_index,
                                history.interpolate(t_out, order))
                self._output_index += 1
                emitted = True

            # Step-size controller for the next step.
            if ratio > 0.0:
                grow = SAFETY * ratio ** (-1.0 / (order + 1))
                grow = min(max(grow, DT_SHRINK), DT_GROW)
            else:
                grow = DT_GROW
            candidate = min(max(dt * grow, dt_floor), self._dt_cap)
            if self._error_control:
                candidate = max(quantize_step(candidate, analysis.tstep),
                                dt_floor)
            if order >= 3 and candidate > dt * (1.0 + 1e-12):
                # High-order growth gate (see _BDF_GROW_HOLD): one ladder
                # rung at a time, spaced by enough uniform steps.
                if self._steps_since_grow < _BDF_GROW_HOLD[order]:
                    candidate = dt
                else:
                    candidate = max(
                        quantize_step(min(candidate, _BDF_GROW_CAP * dt),
                                      analysis.tstep), dt_floor)
            if not clamped:
                # A step clamped to tstop/a print target says nothing about
                # accuracy at the controller's own size; it leaves the
                # standing step as it is.
                self._step = candidate
            if self._error_control:
                self._consider_order_change(order, dt, clamped)

        # The final accepted step lands on ``tstop`` within ``eps``, so
        # every output row has normally been emitted; flush any stragglers
        # (float pathology) with the final state rather than leaving zeros.
        if state.time >= tstop - eps:
            while self._output_index < len(times):
                self._write(self._output_index, state.x)
                self._output_index += 1
        return self._output_index < len(times)

    def _solve_linear_step(self) -> None:
        """Advance a fully linear circuit by one sub-step.

        The MNA matrix of a linear circuit depends only on the integration
        coefficients (and gmin), not on time or the solution, so each
        distinct ``(c0, c1, gmin)`` key is factorised once — through the
        backend's :meth:`freeze_solver` (dense LAPACK LU or sparse SuperLU)
        — and the factors are reused for every timestep with that key.
        The cache is bounded: the adaptive controller produces a changing
        (but, thanks to step quantisation, mostly recurring) set of step
        sizes, and least recently used factorisations are evicted beyond
        :data:`SOLVER_CACHE_SIZE`.
        """
        state = self.state
        base = self.builder.assemble_constant(state)
        key = (state.integ_c0, state.integ_c1, state.gmin)
        solver = self._lu_cache.get(key)
        if solver is None:
            solver = base.freeze_solver()
            self._lu_cache.put(key, solver)
        state.x = solver(base.rhs)

    # ------------------------------------------------------------------
    def finish(self) -> TransientResult:
        """Assemble the :class:`TransientResult` from the recorded rows."""
        analysis = self.analysis
        builder = self.builder
        data = self.data
        select = self._select
        times = self.times

        if select is None:
            node_traces = {name: data[:, index]
                           for name, index in builder.node_index.items()}
            branch_traces = {}
            if analysis.record_currents:
                branch_traces = {device.name.lower():
                                 data[:, device.branch_index]
                                 for device in builder.devices
                                 if device.branch_count() > 0}
        else:
            node_traces = {}
            branch_traces = {}
            for column, (name, is_branch) in enumerate(select[1]):
                target = branch_traces if is_branch else node_traces
                target[name] = data[:, column]

        counters = {
            "newton_iterations": self._newton_iterations,
            "steps_accepted": self._accepted_steps,
            "steps_rejected": self._rejected_steps,
            "dt_min": (0.0 if self._accepted_steps == 0
                       else self._dt_smallest),
            "dt_max": self._dt_largest,
            # Order telemetry (str keys so the dicts survive a JSON
            # checkpoint round-trip unchanged): accepted steps per
            # integration order, mean accepted step size per order, and
            # how often consecutive accepted steps changed order.
            "order_histogram": {str(order): count for order, count
                                in sorted(self._order_counts.items())},
            "steps_per_order": {
                str(order): self._order_dt_sum[order] / count
                for order, count in sorted(self._order_counts.items())},
            "order_changes": self._order_changes,
        }
        stats = {
            "linear_bypass": builder.is_linear,
            "solver_backend": builder.backend.name,
            "matrix_size": builder.size,
            "timestep_mode": analysis.timestep.mode,
            "recorded_nodes": (data.shape[1] if select is not None
                               else len(builder.node_index)),
            "trace_bytes": int(data.nbytes),
        }
        stats.update(counters)
        return TransientResult(times, node_traces, branch_traces, stats=stats)
