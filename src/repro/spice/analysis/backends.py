"""Pluggable linear-solver backends for the MNA kernel.

Every Newton iteration and every linear-bypass timestep of the transient
driver ends in one linear solve of the MNA system.  This module makes the
*representation* of that system — and the factorisation used to solve it —
a pluggable choice:

:class:`DenseSolverBackend`
    The historical behaviour: a dense ``numpy`` matrix
    (:class:`MNASystem`, defined here) solved with LAPACK
    ``getrf``/``getrs`` (``scipy.linalg.lu_factor`` when available).  The
    O(n^3) factorisation is unbeatable below a few hundred unknowns, where
    the constant factors of sparse bookkeeping dominate.

:class:`SparseSolverBackend`
    A ``scipy.sparse`` path built for the large circuits the ROADMAP flags:
    device stamps are accumulated as COO triplets
    (:class:`SparseMNASystem`), assembled into one CSC matrix, and solved
    with SuperLU (``scipy.sparse.linalg.splu``).  The COO→CSC scatter
    pattern — the symbolic part of the assembly — is computed once and
    reused for every subsequent assembly with the same stamp structure,
    which holds across all Newton iterations and timesteps of a run.
    :meth:`SparseMNASystem.freeze_solver` additionally caches a complete
    ``splu`` factorisation, which the transient driver keys by step size on
    the linear-bypass path.

:class:`StackedMNASystem`
    Several dense systems of one size in one ``(k, n, n)`` block, solved
    by one stacked LAPACK call with each solution bitwise the one-system
    result: the lockstep Newton rounds of the batched transient
    (:class:`~repro.spice.analysis.newton.NewtonRound`) linearise and
    solve fault variants through it.

Backend selection is automatic by matrix size (:func:`select_backend` with
:data:`SPARSE_AUTO_THRESHOLD`) and can be forced per analysis via the
``solver_backend`` argument of :class:`~repro.spice.analysis.mna.MNABuilder`,
:class:`~repro.spice.analysis.transient.TransientAnalysis` and the campaign
layer (``CampaignSettings.solver_backend``).  The choice actually taken is
recorded in ``TransientResult.stats["solver_backend"]``.

Both backends expose the same system interface consumed by the device
stamps (:class:`MNASystem` is the reference implementation):
``add``/``add_rhs`` for scalar stamps, ``scatter``/``scatter_rhs`` for the
vectorized banks, ``add_diagonal`` for gmin, ``clear``, ``copy_from``,
``solve`` and ``freeze_solver``.  The scatter methods are the **scatter
seam**: direct ``np.add.at`` accumulation onto system matrices is allowed
only inside this module (the custom checker ``tools/repro_lint.py``
enforces that repo invariant), so alternative representations can rely on
every stamp flowing through the interface above.
"""

from __future__ import annotations

import functools
import importlib
import warnings

import numpy as np
from numpy.linalg import _umath_linalg

from ...errors import AnalysisError, SingularMatrixError


@functools.cache
def _scipy(module: str):
    """``scipy.<module>``, imported on first use; ``None`` when it cannot
    be imported.

    Importing scipy takes about a quarter of a second, and the dense
    Newton path of a small circuit never needs it, so nothing imports it
    until an LU factorisation or a sparse system is asked for.
    """
    try:
        return importlib.import_module(f"scipy.{module}")
    except ImportError:
        return None


#: Smallest number of MNA unknowns for which ``auto`` selection picks the
#: sparse backend.  Below this the dense LAPACK path wins on constant
#: factors (measured with ``benchmarks/bench_kernel_scaling.py``: the dense
#: linear bypass is still ahead at ~64 unknowns and clearly behind at ~256).
SPARSE_AUTO_THRESHOLD = 160

#: Recognised values for every ``solver_backend`` argument in the stack.
BACKEND_CHOICES = ("auto", "dense", "sparse")


def sparse_available() -> bool:
    """True when ``scipy.sparse`` (and SuperLU) can be imported."""
    return _scipy("sparse.linalg") is not None


def make_lu_solver(matrix: np.ndarray):
    """Factorise ``matrix`` once and return ``solve(rhs) -> x``.

    Uses a cached LU decomposition when SciPy is available and falls back to
    a plain dense solve otherwise.  The returned callable raises
    :class:`SingularMatrixError` on singular or non-finite systems (with
    SciPy, an exactly singular one raises it here instead of a warning).
    """
    linalg = _scipy("linalg")
    if linalg is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", linalg.LinAlgWarning)
            try:
                lu = linalg.lu_factor(matrix)
            except (ValueError, np.linalg.LinAlgError,
                    linalg.LinAlgWarning) as exc:
                raise SingularMatrixError(
                    f"MNA matrix cannot be factorised: {exc}") from exc

        def solve(rhs: np.ndarray) -> np.ndarray:
            solution = linalg.lu_solve(lu, rhs)
            if not np.all(np.isfinite(solution)):
                raise SingularMatrixError("MNA solution contains NaN/Inf")
            return solution

        return solve

    frozen = np.array(matrix, copy=True)

    def solve(rhs: np.ndarray) -> np.ndarray:
        try:
            solution = np.linalg.solve(frozen, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"MNA matrix is singular: {exc}") from exc
        if not np.all(np.isfinite(solution)):
            raise SingularMatrixError("MNA solution contains NaN/Inf")
        return solution

    return solve


def _raise_singular(error, flag):
    # The message must stay byte-equal to the SingularMatrixError that
    # np.linalg.solve's LinAlgError maps to elsewhere in this module;
    # tests/test_dense_kernel.py pins it.
    raise SingularMatrixError("MNA matrix is singular: Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _gesv(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrix, rhs)`` for float64 or complex128 systems,
    without its per-call dtype dispatch: the LAPACK ``gesv`` gufunc it
    calls, under the same error state, so the same solution, or
    :class:`SingularMatrixError` where it raises ``LinAlgError``.  A 1-D
    ``rhs`` is one vector, any other a stack of ``(n, k)`` right-hand
    sides.

    The gufuncs live in numpy's private ``numpy.linalg._umath_linalg``
    module; the dependency is bounded below numpy 3 (``pyproject.toml``),
    so a new major release is taken deliberately, after
    ``tests/test_dense_kernel.py`` and ``make record-identity`` pass on it.
    """
    gufunc = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    if matrix.dtype.kind == "c" or rhs.dtype.kind == "c":
        return gufunc(matrix, rhs, signature="DD->D")
    return gufunc(matrix, rhs, signature="dd->d")


#: Index maps a dense system keeps flattened (one per device bank and
#: system in practice); more distinct maps start the cache over.
FLAT_INDEX_CACHE = 8


def _flat_index(cache: dict, rows: np.ndarray, cols: np.ndarray,
                stride: int) -> np.ndarray:
    """``rows * stride + cols``, computed once per ``(rows, cols)`` pair.

    The banks pass the same map arrays on every stamp, so the pair is
    keyed by identity; the cache holds both arrays, so an id it holds is
    never reused by another array.
    """
    entry = cache.get(id(rows))
    if entry is None or entry[1] is not cols:
        if len(cache) >= FLAT_INDEX_CACHE:
            cache.clear()
        entry = cache[id(rows)] = (rows, cols, rows * stride + cols)
    return entry[2]


class MNASystem:
    """Dense MNA matrix and right-hand side with ground-aware stamping.

    This is the reference implementation of the system interface shared by
    all solver backends: scalar stamps go through :meth:`add`/:meth:`add_rhs`,
    the vectorized device banks go through :meth:`scatter`/:meth:`scatter_rhs`
    — the only place device contributions may hit the matrix memory directly
    (``np.add.at`` lives here and nowhere else; ``tools/repro_lint.py``
    enforces it) — and the solver side is :meth:`solve` (one-shot) or
    :meth:`freeze_solver` (cached factorisation for the linear-bypass path).

    :meth:`scatter` accumulates on the raveled matrix at ``row * size +
    col``, the flat index of each bank's map computed once per system;
    :meth:`solve` calls the ``gesv`` gufunc behind ``np.linalg.solve``
    directly.  Both give exactly the floats of the 2-D ``np.add.at`` and
    of ``np.linalg.solve``.
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.matrix = np.zeros((size, size), dtype=dtype)
        self.rhs = np.zeros(size, dtype=dtype)
        self._raveled = self.matrix.reshape(-1)
        self._flat: dict = {}

    @classmethod
    def over(cls, matrix: np.ndarray, rhs: np.ndarray) -> "MNASystem":
        """A system stamping into the given ``matrix``/``rhs`` arrays (e.g.
        views of a :class:`StackedMNASystem` block)."""
        system = cls.__new__(cls)
        system.size = len(rhs)
        system.matrix = matrix
        system.rhs = rhs
        system._raveled = matrix.reshape(-1)
        system._flat = {}
        return system

    def clear(self) -> None:
        self.matrix[:, :] = 0.0
        self.rhs[:] = 0.0

    def add(self, row: int, col: int, value) -> None:
        """Add ``value`` at (row, col); indices of -1 refer to ground and are
        silently dropped."""
        if row < 0 or col < 0:
            return
        self.matrix[row, col] += value

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self.rhs[row] += value

    def scatter(self, rows: np.ndarray, cols: np.ndarray,
                values: np.ndarray) -> None:
        """Accumulate ``values`` at ``(rows[k], cols[k])`` (duplicates sum).

        Ground entries must already be dropped; the banks precompute their
        index maps that way.
        """
        np.add.at(self._raveled,
                  _flat_index(self._flat, rows, cols, self.size), values)

    def scatter_rhs(self, rows: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self.rhs, rows, values)

    def add_diagonal(self, indices: np.ndarray, value: float) -> None:
        """Add ``value`` on the diagonal slots ``indices`` (gmin stamp)."""
        self.matrix[indices, indices] += value

    def copy_from(self, other: "MNASystem") -> None:
        """Become a copy of ``other`` (matrix and right-hand side)."""
        np.copyto(self.matrix, other.matrix)
        np.copyto(self.rhs, other.rhs)

    def solve(self) -> np.ndarray:
        """Solve the linear system, raising :class:`SingularMatrixError` on a
        singular or numerically unusable matrix."""
        solution = _gesv(self.matrix, self.rhs)
        if not np.isfinite(solution).all():
            raise SingularMatrixError("MNA solution contains NaN/Inf")
        return solution

    def freeze_solver(self):
        """Factorise the present matrix once and return ``solve(rhs) -> x``."""
        return make_lu_solver(self.matrix)


class StackedMNASystem:
    """``count`` dense MNA systems of one size, stored as one
    ``(count, size, size)`` block and solved with one LAPACK call.

    :attr:`members` are :class:`MNASystem` objects over the slices of the
    block, stamped like any system.  :meth:`scatter`/:meth:`scatter_rhs`
    reach all members at once: their rows address the stacked rows, member
    ``j``'s row ``r`` being ``j * size + r``.  :meth:`solve` factorises and
    solves each matrix exactly as :meth:`MNASystem.solve` does (one stacked
    ``gesv``), so every solution is bitwise the one-system result.
    """

    def __init__(self, count: int, size: int):
        self.size = size
        self.matrices = np.zeros((count, size, size))
        self.rhs = np.zeros((count, size))
        self._raveled = self.matrices.reshape(-1)
        self._rhs = self.rhs.reshape(count * size)
        self._flat: dict = {}
        self.members = [MNASystem.over(matrix, rhs)
                        for matrix, rhs in zip(self.matrices, self.rhs)]

    def scatter(self, rows: np.ndarray, cols: np.ndarray,
                values: np.ndarray) -> None:
        np.add.at(self._raveled,
                  _flat_index(self._flat, rows, cols, self.size), values)

    def scatter_rhs(self, rows: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self._rhs, rows, values)

    def solve(self) -> list:
        """One outcome per member: its solution, or the
        :class:`SingularMatrixError` its own :meth:`MNASystem.solve`
        raises.  A member the stacked call cannot serve (one singular
        matrix makes LAPACK refuse the whole stack; a non-finite solution
        fails the check) is re-solved on its own, so an error reaches only
        the member it belongs to, with its usual message."""
        try:
            solutions = _gesv(self.matrices, self.rhs[..., None])[..., 0]
            finite = np.isfinite(solutions).all(axis=1)
        except SingularMatrixError:
            solutions = finite = [False] * len(self.members)
        outcomes = []
        for member, solution, ok in zip(self.members, solutions, finite):
            if not ok:
                try:
                    solution = member.solve()
                except SingularMatrixError as exc:
                    solution = exc
            outcomes.append(solution)
        return outcomes


class _CSCPattern:
    """Frozen symbolic assembly pattern: COO entry order → CSC slots.

    Built once from the (row, col) sequence of an assembly and reused for
    every later assembly that produces the same sequence — i.e. the
    numeric phase of each Newton iteration is one ``np.bincount`` scatter
    instead of a fresh sort.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "coo_to_csc", "nnz")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        self.rows = rows
        self.cols = cols
        # CSC order: sort by column, rows ascending within each column.
        order = np.lexsort((rows, cols))
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        first = np.empty(len(rows), dtype=bool)
        if len(rows):
            first[0] = True
            first[1:] = ((sorted_rows[1:] != sorted_rows[:-1])
                         | (sorted_cols[1:] != sorted_cols[:-1]))
        group = np.cumsum(first) - 1
        self.nnz = int(group[-1] + 1) if len(rows) else 0
        self.coo_to_csc = np.empty(len(rows), dtype=np.intp)
        self.coo_to_csc[order] = group
        self.indices = sorted_rows[first].astype(np.int32, copy=False)
        counts = np.bincount(sorted_cols[first], minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr

    def matches(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        return (len(rows) == len(self.rows)
                and np.array_equal(rows, self.rows)
                and np.array_equal(cols, self.cols))


class SparseMNASystem:
    """MNA system accumulated as COO triplets and solved with SuperLU.

    Scalar stamps (``add``) append to Python lists; the vectorized device
    banks (``scatter``) append whole index/value array chunks.  ``solve``
    concatenates everything, folds duplicates into CSC slots through the
    cached :class:`_CSCPattern` and factorises with ``splu``.  The right-
    hand side stays a dense vector throughout.

    Only the real-valued analyses use this class; the complex AC system is
    always dense (it is assembled once per frequency point and the circuit
    sizes involved are small).
    """

    def __init__(self, size: int, dtype=float):
        if not sparse_available():
            raise AnalysisError(
                "the sparse solver backend requires scipy.sparse")
        if dtype is not float:
            raise AnalysisError(
                "SparseMNASystem only supports real-valued systems")
        self.size = size
        self.rhs = np.zeros(size)
        self._scalar_rows: list[int] = []
        self._scalar_cols: list[int] = []
        self._scalar_vals: list[float] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pattern: _CSCPattern | None = None

    # -- stamping interface (mirrors MNASystem) -------------------------
    def clear(self) -> None:
        """Drop all accumulated stamps; the symbolic pattern cache stays."""
        self._scalar_rows.clear()
        self._scalar_cols.clear()
        self._scalar_vals.clear()
        self._chunks.clear()
        self.rhs[:] = 0.0

    def add(self, row: int, col: int, value) -> None:
        if row < 0 or col < 0:
            return
        self._scalar_rows.append(row)
        self._scalar_cols.append(col)
        self._scalar_vals.append(value)

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self.rhs[row] += value

    def scatter(self, rows: np.ndarray, cols: np.ndarray,
                values: np.ndarray) -> None:
        self._chunks.append((rows, cols, values))

    def scatter_rhs(self, rows: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self.rhs, rows, values)

    def add_diagonal(self, indices: np.ndarray, value: float) -> None:
        self._chunks.append((indices, indices,
                             np.full(len(indices), value)))

    def copy_from(self, other: "SparseMNASystem") -> None:
        """Become a copy of ``other``'s stamps (chunk arrays are shared —
        the banks allocate fresh value arrays on every stamp)."""
        self._scalar_rows = list(other._scalar_rows)
        self._scalar_cols = list(other._scalar_cols)
        self._scalar_vals = list(other._scalar_vals)
        self._chunks = list(other._chunks)
        np.copyto(self.rhs, other.rhs)

    # -- assembly and solution ------------------------------------------
    def _assemble(self):
        """Fold the accumulated COO triplets into one CSC matrix."""
        row_parts = [np.asarray(self._scalar_rows, dtype=np.intp)]
        col_parts = [np.asarray(self._scalar_cols, dtype=np.intp)]
        val_parts = [np.asarray(self._scalar_vals, dtype=float)]
        for rows, cols, values in self._chunks:
            row_parts.append(np.asarray(rows, dtype=np.intp))
            col_parts.append(np.asarray(cols, dtype=np.intp))
            val_parts.append(np.asarray(values, dtype=float))
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        values = np.concatenate(val_parts)
        pattern = self._pattern
        if pattern is None or not pattern.matches(rows, cols):
            # First assembly (or a structural change, which regular device
            # stamping never produces): compute the symbolic pattern.
            pattern = _CSCPattern(rows, cols, self.size)
            self._pattern = pattern
        data = np.bincount(pattern.coo_to_csc, weights=values,
                           minlength=pattern.nnz)
        return _scipy("sparse").csc_matrix(
            (data, pattern.indices, pattern.indptr),
            shape=(self.size, self.size))

    def _factorize(self):
        matrix = self._assemble()
        try:
            return _scipy("sparse.linalg").splu(matrix)
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            raise SingularMatrixError(
                f"sparse MNA matrix cannot be factorised: {exc}") from exc

    def solve(self) -> np.ndarray:
        """Assemble, factorise and solve for the present right-hand side."""
        lu = self._factorize()
        solution = lu.solve(self.rhs)
        if not np.all(np.isfinite(solution)):
            raise SingularMatrixError("sparse MNA solution contains NaN/Inf")
        return solution

    def freeze_solver(self):
        """Factorise the present matrix once and return ``solve(rhs) -> x``.

        The returned callable owns the ``splu`` object; the transient
        driver caches one per distinct step size on the linear-bypass path.
        """
        lu = self._factorize()

        def solve(rhs: np.ndarray) -> np.ndarray:
            solution = lu.solve(rhs)
            if not np.all(np.isfinite(solution)):
                raise SingularMatrixError(
                    "sparse MNA solution contains NaN/Inf")
            return solution

        return solve


class SolverBackend:
    """Factory for the MNA system representation of one analysis."""

    #: Identifier recorded in ``TransientResult.stats["solver_backend"]``.
    name = "?"

    def create_system(self, size: int, dtype=float):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class DenseSolverBackend(SolverBackend):
    """Dense numpy matrix + LAPACK LU (the historical kernel)."""

    name = "dense"

    def create_system(self, size: int, dtype=float) -> MNASystem:
        return MNASystem(size, dtype)


class SparseSolverBackend(SolverBackend):
    """scipy.sparse CSC assembly + SuperLU factorisation."""

    name = "sparse"

    def __init__(self):
        if not sparse_available():
            raise AnalysisError(
                "the sparse solver backend requires scipy.sparse")

    def create_system(self, size: int, dtype=float) -> SparseMNASystem:
        return SparseMNASystem(size, dtype)


def select_backend(size: int, choice: str | None = None) -> SolverBackend:
    """Resolve a backend for a system of ``size`` unknowns.

    ``choice`` is ``"auto"`` (or ``None``), ``"dense"`` or ``"sparse"``.
    ``auto`` picks sparse at or above :data:`SPARSE_AUTO_THRESHOLD`
    unknowns when scipy.sparse is importable, dense otherwise; ``sparse``
    raises :class:`~repro.errors.AnalysisError` when scipy.sparse is
    missing rather than silently degrading.
    """
    choice = "auto" if choice is None else str(choice).lower()
    if choice not in BACKEND_CHOICES:
        raise AnalysisError(
            f"unknown solver backend {choice!r}; expected one of "
            f"{', '.join(BACKEND_CHOICES)}")
    if choice == "dense":
        return DenseSolverBackend()
    if choice == "sparse":
        return SparseSolverBackend()
    if size >= SPARSE_AUTO_THRESHOLD and sparse_available():
        return SparseSolverBackend()
    return DenseSolverBackend()


__all__ = [
    "BACKEND_CHOICES",
    "SPARSE_AUTO_THRESHOLD",
    "DenseSolverBackend",
    "MNASystem",
    "SolverBackend",
    "SparseMNASystem",
    "SparseSolverBackend",
    "StackedMNASystem",
    "make_lu_solver",
    "select_backend",
    "sparse_available",
]
