"""Newton-Raphson solution of the nonlinear MNA system.

The iteration itself is one generator, :func:`newton_iterations`, that
suspends wherever the present linearisation must be stamped and solved.
:func:`solve_newton` drives it alone; the batched transient drives the
iterations of several circuit variants in lockstep and serves each round
of them through :class:`NewtonRound` (one fused device evaluation, one
stacked solve).  Either way every variant runs the same loop on the same
floats.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ...errors import ConvergenceError, SingularMatrixError
from .mna import (ITL1, MAX_VOLTAGE_STEP, RELTOL, FusedIteration,
                  MNABuilder, SimState)

#: Round plans a :class:`NewtonRound` keeps, least recently used dropped.
#: A plan holds about 5 kB plus 15 kB per fused VCO variant.  Measured over
#: all 99 LIFT faults of the VCO at fig. 5 settings with batches of 8, a
#: batch meets up to 177 sets of waiting variants (adaptive, no early
#: abort: 11.7 MB of plans if all were kept); with this bound 2.0-4.1 % of
#: the rounds rebuild their plan, against 2.0-2.5 % with no bound.
ROUND_PLANS_KEPT = 32


def newton_iterations(builder: MNABuilder, state: SimState,
                      x0: np.ndarray | None = None,
                      max_iterations: int | None = None):
    """The Newton loop of :func:`solve_newton` as a generator.

    It yields (``None``) once per iteration, where the system linearised
    around ``state.x`` must be built (``builder.build_iteration(state)``)
    and solved; the driver sends the solution back, or throws in the
    :class:`SingularMatrixError` the solve raised.  The generator returns
    the converged ``state.x`` and raises what :func:`solve_newton` raises.
    A fully linear circuit is solved without yielding.
    """
    limit = max_iterations if max_iterations is not None else ITL1
    if x0 is not None:
        state.x = np.array(x0, dtype=float, copy=True)
    has_nonlinear = bool(builder.nonlinear_devices)
    num_nodes = builder.num_nodes

    base = builder.assemble_constant(state)

    if not has_nonlinear:
        # Linear bypass: the system does not depend on the iterate, so a
        # single direct solve is already the fixed point of the iteration.
        state.limited = False
        state.x = base.solve()
        state.last_newton_iterations = 1
        return state.x

    abs_tolerance = builder.begin_iterations()
    # A 0-d operand: numpy 2 wraps a Python float anew on every call.
    reltol = np.array(RELTOL)
    try:
        previous = state.x.copy()
        for iteration in range(1, limit + 1):
            try:
                solution = yield
            except SingularMatrixError:
                if iteration == 1:
                    raise
                # A transiently singular linearisation: fall back to a damped
                # retry from the previous iterate.
                state.x = 0.5 * (state.x + previous)
                continue

            delta = solution - state.x
            abs_delta = np.abs(delta)
            # Damp excessive node-voltage excursions to keep the device
            # linearisations in a sane region.
            if num_nodes > 0:
                worst = abs_delta[:num_nodes].max()
                if worst > MAX_VOLTAGE_STEP:
                    delta *= MAX_VOLTAGE_STEP / worst
                    solution = state.x + delta
                    abs_delta = np.abs(delta)

            # Convergence counts from the second iteration on, and never
            # while a device limited its step: only then is it tested.
            converged = (
                iteration > 1 and not state.limited
                and bool((abs_delta
                          <= reltol * np.maximum(np.abs(solution),
                                                 np.abs(state.x))
                          + abs_tolerance).all()))

            # state.x is rebound, never written in place: no copy needed.
            previous = state.x
            state.x = solution

            if converged:
                state.last_newton_iterations = iteration
                return state.x
    finally:
        builder.end_iterations()

    state.last_newton_iterations = limit
    worst_index = int(np.argmax(np.abs(state.x - previous)))
    worst_node = None
    if worst_index < num_nodes:
        worst_node = builder.node_names[worst_index]
    raise ConvergenceError(
        f"Newton iteration did not converge in {limit} iterations "
        f"(mode={state.mode}, time={state.time:g})",
        iterations=limit, worst_node=worst_node)


def solve_newton(builder: MNABuilder, state: SimState,
                 x0: np.ndarray | None = None,
                 max_iterations: int | None = None) -> np.ndarray:
    """Iterate the linearised MNA system to convergence.

    The iteration-constant part of the system (linear devices, sources at
    the present time, companion history) is assembled once per call through
    :meth:`MNABuilder.assemble_constant`; each iteration only re-stamps the
    nonlinear linearisations on top of that base.  Fully linear circuits are
    solved with a single factorisation and no iteration.  Every linear solve
    goes through the builder's solver backend (dense LAPACK or sparse
    SuperLU, see :mod:`repro.spice.analysis.backends`).  This is
    :func:`newton_iterations` driven alone.

    Parameters
    ----------
    builder:
        Bound circuit.
    state:
        Simulation state; ``state.x`` is updated in place with each iterate
        and holds the converged solution on return.
        ``state.last_newton_iterations`` reports the number of iterations
        spent (1 for the linear bypass).
    x0:
        Initial guess (defaults to the current ``state.x``).
    max_iterations:
        Iteration limit (defaults to :data:`~.mna.ITL1`).

    Raises
    ------
    ConvergenceError
        If the iteration limit is exceeded.
    SingularMatrixError
        If the matrix cannot be factorised at the first iteration.
    """
    iterations = newton_iterations(builder, state, x0, max_iterations)
    try:
        next(iterations)
        while True:
            system = builder.build_iteration(state)
            try:
                solution = system.solve()
            except SingularMatrixError as exc:
                iterations.throw(exc)
            else:
                iterations.send(solution)
    except StopIteration as done:
        return done.value


class NewtonRound:
    """Run the Newton iterations of several circuit variants in lockstep
    rounds, serving each round at once.

    :meth:`drive` runs generators that yield wherever a variant's next
    linearisation must be built and solved (:func:`newton_iterations`, or
    a whole print row of :meth:`~repro.spice.analysis.transient.\
TransientRun.iterations`); :meth:`solve` serves one round of them.
    Variants sharing a :meth:`~repro.spice.analysis.mna.MNABuilder.\
fusion_key` (dense systems of one size, all with or all without
    MOSFETs) are linearised by one
    :class:`~repro.spice.analysis.mna.FusedIteration` (one MOSFET
    evaluation) and solved by one stacked LAPACK call; any
    other variant, and a round of one, is built and solved on its own as
    :func:`solve_newton` would.  Either way each variant gets the floats
    :func:`solve_newton` computes for it.

    One object serves one batch of variants.  It keeps the plans of the
    last :data:`ROUND_PLANS_KEPT` sets of variants its rounds served,
    since a lockstep sweep repeats the same sets round after round.
    """

    def __init__(self):
        self._plans: OrderedDict = OrderedDict()

    def drive(self, lanes: dict) -> dict:
        """Run every lane of ``lanes`` (key to ``(builder, state,
        generator)``) to its end in rounds; the
        :class:`ConvergenceError`/:class:`SingularMatrixError` each failed
        lane raised, by key.

        A lane's generator yields wherever ``builder``'s system linearised
        around ``state.x`` must be built and solved, and takes the
        solution back, or the :class:`SingularMatrixError` of the solve
        thrown in.  Every round serves the lanes waiting at that point, in
        the order of ``lanes``."""
        failures: dict = {}

        def resume(key, outcome) -> bool:
            lane = lanes[key][2]
            try:
                if isinstance(outcome, SingularMatrixError):
                    lane.throw(outcome)
                else:
                    lane.send(outcome)
                return True
            except StopIteration:
                pass
            except (ConvergenceError, SingularMatrixError) as exc:
                failures[key] = exc
            return False

        waiting = [key for key in lanes if resume(key, None)]
        while waiting:
            outcomes = self.solve([lanes[key][0] for key in waiting],
                                  [lanes[key][1] for key in waiting])
            waiting = [key for key, outcome in zip(waiting, outcomes)
                       if resume(key, outcome)]
        return failures

    def solve(self, builders: list, states: list) -> list:
        """One linearise-and-solve of every variant: its solution, or the
        :class:`SingularMatrixError` its solve raised."""
        if len(builders) == 1:
            return [_solve_one(builders[0], states[0])]
        fused, lone = self._plan(builders, states)
        outcomes: list = [None] * len(builders)
        for positions, iteration in fused:
            for j, outcome in zip(positions, iteration.build().solve()):
                outcomes[j] = outcome
        for j in lone:
            outcomes[j] = _solve_one(builders[j], states[j])
        return outcomes

    def _plan(self, builders: list, states: list) -> tuple:
        """``([(positions, FusedIteration)], lone positions)``."""
        key = tuple(builders)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        groups: dict = {}
        for j, builder in enumerate(builders):
            groups.setdefault(builder.fusion_key(), []).append(j)
        lone = groups.pop(None, [])
        fused = []
        for positions in groups.values():
            if len(positions) == 1:
                lone.extend(positions)
            else:
                fused.append((positions, FusedIteration(
                    [builders[j] for j in positions],
                    [states[j] for j in positions])))
        plan = self._plans[key] = (fused, sorted(lone))
        if len(self._plans) > ROUND_PLANS_KEPT:
            self._plans.popitem(last=False)
        return plan


def _solve_one(builder: MNABuilder, state: SimState):
    system = builder.build_iteration(state)
    try:
        return system.solve()
    except SingularMatrixError as exc:
        return exc
