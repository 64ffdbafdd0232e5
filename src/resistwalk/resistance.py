"""Effective resistance, all-pairs resistance matrices and set resistance.

The effective resistance R(x, y) is computed from the graph Laplacian with
one vertex grounded: injecting a unit current at x and extracting it at y,
R(x, y) is the potential difference u(x) - u(y).  Equivalently
R(x, y)^-1 = inf { E(f, f) : f(x) = 0, f(y) = 1 } for the Dirichlet form
E(f, f) = (1/2) sum_{x ~ y} (f(x) - f(y))^2 mu_xy.

Systems of at most DENSE_LIMIT unknowns are factored by dpotrf and solved by
dpotrs of scipy's OpenBLAS, called through ctypes on the dense matrix filled
from the edge arrays: the routines, arguments and so the bits of
scipy.linalg's cho_factor and cho_solve, without importing scipy.linalg or
scipy.sparse.  Where those functions cannot be found, cho_factor and
cho_solve are imported and called.  Only larger systems import scipy.sparse,
for a sparse LU factorization.

Dense systems of at most ONE_THREAD_LIMIT unknowns factor and solve on one
thread of scipy's OpenBLAS.  Up to that size one thread gave the same bits
as two on every family graph tested, a second thread did not make the
calls faster, and its worker spun on after each call, taking a CPU another
process could use.  Larger systems keep the thread count they find.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptySet,
    MissingValue,
    OverlappingSets,
    SolverFailure,
)
from .graphs import WeightedGraph, wire_vertices

DENSE_LIMIT = 5000
ONE_THREAD_LIMIT = 128  # dense systems of at most this many unknowns run on one BLAS thread
ALL_PAIRS_BUDGET = 3000

# the extension module behind scipy.linalg's BLAS calls; its OpenBLAS copy
# is the one cho_factor and cho_solve reach
_SCIPY_BLAS_MODULE = "scipy.linalg._fblas"


def _library_functions(module: str, names, prefixes, suffixes) -> tuple | None:
    """The functions f"{prefix}{name}{suffix}" for each of `names`, from the
    first prefix and then suffix under which all of them are found, or None.

    They are looked up on a handle to the file of the extension module
    `module`, a submodule of a package, which is found but not run: only
    the packages above its parent are imported, so scipy.linalg's __init__
    does not run for scipy.linalg._fblas.  dlsym on that handle also
    searches the libraries the module links, so these are the functions its
    own calls reach."""
    try:
        where = importlib.util.find_spec(module.rpartition(".")[0]).submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(module, where or [])
        if not spec.has_location:  # a namespace package: CDLL(None) would open the program
            return None
        lib = ctypes.CDLL(spec.origin)
    except (ValueError, ImportError, AttributeError, OSError):  # no parent, no module, no library
        return None
    for prefix in prefixes:
        for suffix in suffixes:
            try:
                return tuple(getattr(lib, f"{prefix}{name}{suffix}") for name in names)
            except AttributeError:
                continue
    return None


def _lapack(module: str, names) -> tuple[tuple, type] | None:
    """The LAPACK functions `names` (such as "dgesv") that the extension
    module `module` calls, with the ctypes type of their integer arguments,
    or None if they cannot be found.  A numpy or scipy wheel links them as
    scipy_dgesv_ with 32-bit integers or scipy_dgesv_64_ with 64-bit ones,
    a system build as dgesv_."""
    found = _library_functions(module, names, ("scipy_", ""), ("_64_", "_"))
    if found is None:
        return None
    return found, ctypes.c_int64 if found[0].__name__.endswith("_64_") else ctypes.c_int


class _OpenBLAS(NamedTuple):
    """Thread-count and core-name functions of one loaded OpenBLAS copy."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_corename: Callable[[], bytes | None]


@functools.cache
def _openblas(module: str) -> _OpenBLAS | None:
    """The OpenBLAS copy that the extension module `module` calls, or None
    if the module or its functions cannot be found: a wheel's
    (scipy_openblas_*, with the suffix 64_ in an ILP64 build) or a system
    build's (openblas_*)."""
    found = _library_functions(module, ("get_num_threads", "set_num_threads", "get_corename"),
                               ("scipy_openblas_", "openblas_"), ("", "64_"))
    if found is None:
        return None
    get, set_, core = found
    set_.argtypes, set_.restype = [ctypes.c_int], None
    core.restype = ctypes.c_char_p
    return _OpenBLAS(get, set_, core)


_SCIPY_BLAS = _openblas(_SCIPY_BLAS_MODULE)


class _Cholesky(NamedTuple):
    """dpotrf and dpotrs of scipy's OpenBLAS, the routines cho_factor and
    cho_solve call."""

    potrf: Callable
    potrs: Callable
    int_t: type  # the ctypes type of their integer arguments


@functools.cache
def _scipy_cholesky() -> _Cholesky | None:
    """scipy's dpotrf and dpotrs, or None if they cannot be found.  Each
    takes the length of its one-character argument last, as a Fortran
    routine may read it."""
    found = _lapack(_SCIPY_BLAS_MODULE, ("dpotrf", "dpotrs"))
    if found is None:
        return None
    (potrf, potrs), int_t = found
    ip, dp, size = ctypes.POINTER(int_t), ctypes.c_void_p, ctypes.c_size_t
    potrf.argtypes = [ctypes.c_char_p, ip, dp, ip, ip, size]
    potrs.argtypes = [ctypes.c_char_p, ip, ip, dp, ip, dp, ip, ip, size]
    potrf.restype = potrs.restype = None
    return _Cholesky(potrf, potrs, int_t)


def _cholesky_route() -> list[str] | str:
    """How dense Laplacian systems are factored and solved: the names of
    scipy's LAPACK functions called, or "scipy.linalg" where they cannot be
    found."""
    lapack = _scipy_cholesky()
    return [lapack.potrf.__name__, lapack.potrs.__name__] if lapack else "scipy.linalg"


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """a's upper Cholesky factor, written over the Fortran-ordered positive
    definite a and returned; a's strict lower triangle is left as it was.
    This is cho_factor(a, overwrite_a=True, check_finite=False)[0]: dpotrf
    with uplo 'U' on a's storage.  A matrix that is not positive definite
    raises np.linalg.LinAlgError."""
    lapack = _scipy_cholesky()
    if lapack is None:
        from scipy.linalg import cho_factor

        return cho_factor(a, overwrite_a=True, check_finite=False)[0]
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writable Fortran-ordered square float64 matrix")
    n, info = lapack.int_t(len(a)), lapack.int_t(0)
    lapack.potrf(b"U", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    if info.value:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor of the array is not positive definite")
    return a


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with c.T c x = b for the upper factor c that _cho_factor made, in
    a new Fortran-ordered array; b, one right-hand side or one per column,
    is not written.  This is cho_solve((c, False), b, check_finite=False):
    dpotrs with uplo 'U' on a Fortran-ordered copy of b."""
    lapack = _scipy_cholesky()
    if lapack is None:
        from scipy.linalg import cho_solve

        return cho_solve((c, False), b, check_finite=False)
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or len(x) != len(c):
        raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
    n, info = lapack.int_t(len(c)), lapack.int_t(0)
    nrhs = lapack.int_t(1 if x.ndim == 1 else x.shape[1])
    # info is nonzero only for an argument out of range, which these are not
    lapack.potrs(b"U", ctypes.byref(n), ctypes.byref(nrhs), c.ctypes.data, ctypes.byref(n),
                 x.ctypes.data, ctypes.byref(n), ctypes.byref(info), 1)
    return x


@contextlib.contextmanager
def _one_blas_thread(active: bool):
    """Run the block on one thread of scipy's OpenBLAS when `active`, and
    restore the thread count found, also when the block raises.  Does
    nothing if that OpenBLAS cannot be reached."""
    blas = _SCIPY_BLAS
    if not active or blas is None:
        yield
        return
    found = blas.get_num_threads()
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(found)


def _grounded_entries(g: WeightedGraph):
    """(rows, cols, values) of the nonzeros of the Laplacian without row and
    column 0 (vertex 0 grounded), each (row, col) once; vertex v sits at row
    and column v - 1."""
    eu, ev, ew = g.eu, g.ev, g.ew
    live = eu > 0  # edges are (u, v) with u < v, so only u can be vertex 0
    ru, rv, w = eu[live] - 1, ev[live] - 1, ew[live]
    diag = np.arange(g.n - 1)
    return np.concatenate([ru, rv, diag]), np.concatenate([rv, ru, diag]), np.concatenate([-w, -w, g.mu[1:]])


def _grounded_laplacian(g: WeightedGraph):
    """The grounded Laplacian as a scipy.sparse CSC matrix with sorted
    indices, for the sparse LU route."""
    from scipy.sparse import csc_matrix

    rows, cols, vals = _grounded_entries(g)
    return csc_matrix((vals, (rows, cols)), shape=(g.n - 1, g.n - 1))


def _dense_grounded_laplacian(g: WeightedGraph) -> np.ndarray:
    """The grounded Laplacian as a Fortran-ordered dense array, the one
    _grounded_laplacian(g).toarray() gives.  A NaN or an infinity among its
    nonzeros raises the ValueError cho_factor's own check would, at O(edges)
    instead of O(n**2)."""
    rows, cols, vals = _grounded_entries(g)
    if not np.isfinite(vals).all():
        raise ValueError("array must not contain infs or NaNs")
    a = np.zeros((g.n - 1, g.n - 1), order="F")
    a[rows, cols] = vals
    return a


class LaplacianSolver:
    """Grounded-Laplacian solves, factorized once and reused.

    Vertex 0 is held at potential zero and its row/column dropped; the
    reduced matrix is positive definite on a connected graph.  Systems of at
    most DENSE_LIMIT unknowns use a dense Cholesky factorization of that
    matrix; larger ones a sparse LU factorization (SuperLU) of it followed by
    one step of iterative refinement, which brings resistances to about
    1e-12 relative accuracy.  The dense route runs on one BLAS thread up to
    ONE_THREAD_LIMIT unknowns.

    A solver keeps g's vertex count, not g: g memoizes its solver, and a
    solver that held g would make the pair a reference cycle, which only
    the cyclic garbage collector frees, with the factor, at some later
    allocation.
    """

    def __init__(self, g: WeightedGraph):
        self.n = g.n
        self.dense = g.n - 1 <= DENSE_LIMIT
        self._one_thread = g.n - 1 <= ONE_THREAD_LIMIT
        if self.dense:
            a = _dense_grounded_laplacian(g)
            try:
                with _one_blas_thread(self._one_thread):
                    self._factor = _cho_factor(a)
            except np.linalg.LinAlgError as exc:
                raise SolverFailure(f"Cholesky factorization failed: {exc}")
        else:
            from scipy.sparse.linalg import splu

            self._red = _grounded_laplacian(g)
            try:
                self._lu = splu(self._red)
            except RuntimeError as exc:  # pragma: no cover
                raise SolverFailure(f"sparse LU factorization failed: {exc}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve L u = b with u(0) = 0; b is indexed by all vertices.

        A b holding a NaN or an infinity raises ValueError.  The dense
        factor was checked finite when it was made, so the dense solve
        skips cho_solve's own scan of it and of b.
        """
        b_red = np.asarray_chkfinite(b, dtype=float)[1:]
        if self.dense:
            with _one_blas_thread(self._one_thread):
                u_red = _cho_solve(self._factor, b_red)
        else:
            u_red = self._lu.solve(b_red)
            u_red += self._lu.solve(b_red - self._red @ u_red)
        u = np.zeros(self.n)
        u[1:] = u_red
        return u

    def reduced_inverse(self) -> np.ndarray:
        if not self.dense:
            raise BudgetExceeded("full inverse is only available for dense solves")
        with _one_blas_thread(self._one_thread):
            return _cho_solve(self._factor, np.eye(self.n - 1))


def effective_resistance(g: WeightedGraph, x: int, y: int) -> float:
    """Two-point effective resistance R(x, y); zero iff x == y."""
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        return 0.0
    b = np.zeros(g.n)
    b[x] = 1.0
    b[y] = -1.0
    u = g._derived("solver", lambda: LaplacianSolver(g)).solve(b)
    return float(u[x] - u[y])


@dataclass(eq=False)
class ResistanceMatrix:
    """All-pairs effective resistances with the diameter extremes."""

    matrix: np.ndarray
    r_diam: float   # max_{x,y} R(x,y)
    r_min: float    # min over distinct pairs
    graph: WeightedGraph

    def rescaled(self) -> "RescaledResistance":
        return RescaledResistance(self.matrix / self.r_diam, self.r_diam)


@dataclass(eq=False)
class RescaledResistance:
    """Resistances divided by the resistance diameter; max entry exactly 1."""

    matrix: np.ndarray
    r_diam: float

    def __post_init__(self):
        m = self.matrix
        if not (np.min(m) >= 0.0 and np.max(m) == 1.0):
            raise SolverFailure("rescaled resistance must lie in [0, 1] with max exactly 1")


def resistance_matrix(g: WeightedGraph) -> ResistanceMatrix:
    """All-pairs resistance via the grounded inverse; refuses n > ALL_PAIRS_BUDGET."""
    if g.n > ALL_PAIRS_BUDGET:
        raise BudgetExceeded(f"all-pairs resistance on {g.n} vertices exceeds {ALL_PAIRS_BUDGET}")
    # solver and Gred stay live to the end: freeing them early changes the
    # heap layout, and repeated all-pairs passes then peaked about 13 % higher
    solver = LaplacianSolver(g)
    Gred = solver.reduced_inverse()
    Gfull = np.zeros((g.n, g.n))
    Gfull[1:, 1:] = Gred
    d = np.diag(Gfull)
    R = d[:, None] + d[None, :] - Gfull - Gfull.T
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 0.0)
    offdiag = R[~np.eye(g.n, dtype=bool)]
    r_diam = float(offdiag.max())
    r_min = float(offdiag.min())
    return ResistanceMatrix(matrix=R, r_diam=r_diam, r_min=r_min, graph=g)


def validate_metric(d: np.ndarray) -> None:
    """Refuse a non-finite entry, then check symmetry, zero diagonal,
    positivity off the diagonal and the triangle inequality on all triples,
    with a 1e-10 relative slack.  (A NaN would pass every comparison below,
    and an infinity would make the slack infinite.)"""
    if not np.isfinite(d).all():
        raise SolverFailure("distance matrix has a non-finite entry")
    n = d.shape[0]
    scale = max(1.0, float(np.max(d)))
    tol = 1e-10 * scale
    if np.max(np.abs(d - d.T)) > tol:
        raise SolverFailure("distance matrix is not symmetric")
    if np.max(np.abs(np.diag(d))) > tol:
        raise SolverFailure("distance matrix has a nonzero diagonal")
    if np.min(d + np.eye(n) * scale) <= 0:
        raise SolverFailure("off-diagonal distances must be positive")
    for k in range(n):
        worst = np.max(d - d[:, k][:, None] - d[k, :][None, :])
        if worst > tol:
            raise SolverFailure(f"triangle inequality violated through vertex {k} by {worst:.3e}")


def set_resistance(g: WeightedGraph, A, B) -> float:
    """Effective resistance between disjoint vertex sets A and B.

    Each set is wired into a single vertex (a perfect short) and the
    two-point resistance of the quotient is returned.  For singleton sets
    this is the plain pairwise resistance.
    """
    A = [int(a) for a in A]
    B = [int(b) for b in B]
    if not A or not B:
        raise EmptySet("set resistance needs two nonempty sets")
    for v in A + B:
        g.check_vertex(v)
    if set(A) & set(B):
        raise OverlappingSets(f"sets share vertices {sorted(set(A) & set(B))}")
    if len(A) == 1 and len(B) == 1:
        return effective_resistance(g, A[0], B[0])
    h = g
    a = A[0]
    if len(A) > 1:
        h = wire_vertices(g, A)
        vmap = h.meta["vertex_map"]
        a = vmap[A[0]]
        B = [vmap[b] for b in B]
    b = B[0]
    if len(B) > 1:
        h = wire_vertices(h, B)
        vmap = h.meta["vertex_map"]
        a = vmap[a]
        b = vmap[B[0]]
    return effective_resistance(h, a, b)


def _as_vertex_array(g: WeightedGraph, f) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape != (g.n,):
        raise MissingValue(f"expected {g.n} values, got shape {arr.shape}")
    return arr
