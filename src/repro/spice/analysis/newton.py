"""Newton-Raphson solution of the nonlinear MNA system."""

from __future__ import annotations

import numpy as np

from ...errors import ConvergenceError, SingularMatrixError
from .mna import MNABuilder, SimState


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
    SuperLU, see :mod:`repro.spice.analysis.backends`).

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
        Iteration limit (defaults to ``options.itl1``).

    Raises
    ------
    ConvergenceError
        If the iteration limit is exceeded.
    SingularMatrixError
        If the matrix cannot be factorised at the first iteration.
    """
    options = builder.options
    limit = max_iterations if max_iterations is not None else options.itl1
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
    try:
        previous = state.x.copy()
        for iteration in range(1, limit + 1):
            system = builder.build_iteration(state)
            try:
                solution = system.solve()
            except SingularMatrixError:
                if iteration == 1:
                    raise
                # A transiently singular linearisation: fall back to a damped
                # retry from the previous iterate.
                state.x = 0.5 * (state.x + previous)
                continue

            delta = solution - state.x
            # Damp excessive node-voltage excursions to keep the device
            # linearisations in a sane region.
            max_step = options.max_voltage_step
            if max_step > 0.0 and num_nodes > 0:
                worst = np.abs(delta[:num_nodes]).max()
                if worst > max_step:
                    delta *= max_step / worst
                    solution = state.x + delta

            reference = np.maximum(np.abs(solution), np.abs(state.x))
            tolerance = options.reltol * reference + abs_tolerance
            converged = (bool((np.abs(delta) <= tolerance).all())
                         and not state.limited)

            # state.x is rebound, never written in place: no copy needed.
            previous = state.x
            state.x = solution

            if converged and iteration > 1:
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
