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

import numpy as np

from ...errors import AnalysisError, SingularMatrixError

try:  # pragma: no cover - exercised through make_lu_solver
    from scipy.linalg import lu_factor as _lu_factor, lu_solve as _lu_solve
except ImportError:  # pragma: no cover
    _lu_factor = _lu_solve = None

try:  # pragma: no cover - exercised through the sparse backend tests
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse.linalg import splu as _splu
except ImportError:  # pragma: no cover
    _csc_matrix = _splu = None

#: Smallest number of MNA unknowns for which ``auto`` selection picks the
#: sparse backend.  Below this the dense LAPACK path wins on constant
#: factors (measured with ``benchmarks/bench_kernel_scaling.py``: the dense
#: linear bypass is still ahead at ~64 unknowns and clearly behind at ~256).
SPARSE_AUTO_THRESHOLD = 160

#: Recognised values for every ``solver_backend`` argument in the stack.
BACKEND_CHOICES = ("auto", "dense", "sparse")


def sparse_available() -> bool:
    """True when ``scipy.sparse`` (and SuperLU) can be imported."""
    return _splu is not None


def make_lu_solver(matrix: np.ndarray):
    """Factorise ``matrix`` once and return ``solve(rhs) -> x``.

    Uses a cached LU decomposition when SciPy is available and falls back to
    a plain dense solve otherwise.  The returned callable raises
    :class:`SingularMatrixError` on singular or non-finite systems.
    """
    if _lu_factor is not None:
        try:
            lu = _lu_factor(matrix)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SingularMatrixError(f"MNA matrix cannot be factorised: {exc}") from exc

        def solve(rhs: np.ndarray) -> np.ndarray:
            solution = _lu_solve(lu, rhs)
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


class MNASystem:
    """Dense MNA matrix and right-hand side with ground-aware stamping.

    This is the reference implementation of the system interface shared by
    all solver backends: scalar stamps go through :meth:`add`/:meth:`add_rhs`,
    the vectorized device banks go through :meth:`scatter`/:meth:`scatter_rhs`
    — the only place device contributions may hit the matrix memory directly
    (``np.add.at`` lives here and nowhere else; ``tools/repro_lint.py``
    enforces it) — and the solver side is :meth:`solve` (one-shot) or
    :meth:`freeze_solver` (cached factorisation for the linear-bypass path).
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.matrix = np.zeros((size, size), dtype=dtype)
        self.rhs = np.zeros(size, dtype=dtype)

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
        np.add.at(self.matrix, (rows, cols), values)

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
        try:
            solution = np.linalg.solve(self.matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"MNA matrix is singular: {exc}") from exc
        if not np.isfinite(solution).all():
            raise SingularMatrixError("MNA solution contains NaN/Inf")
        return solution

    def freeze_solver(self):
        """Factorise the present matrix once and return ``solve(rhs) -> x``."""
        return make_lu_solver(self.matrix)


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
        if _splu is None:
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
        return _csc_matrix((data, pattern.indices, pattern.indptr),
                           shape=(self.size, self.size))

    def _factorize(self):
        matrix = self._assemble()
        try:
            return _splu(matrix)
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
    if sparse_available() and size >= SPARSE_AUTO_THRESHOLD:
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
    "make_lu_solver",
    "select_backend",
    "sparse_available",
]
