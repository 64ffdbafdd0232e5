"""Effective resistance, all-pairs resistance matrices and set resistance.

The effective resistance R(x, y) is computed from the graph Laplacian with
one vertex grounded: injecting a unit current at x and extracting it at y,
R(x, y) is the potential difference u(x) - u(y).  Equivalently
R(x, y)^-1 = inf { E(f, f) : f(x) = 0, f(y) = 1 } for the Dirichlet form
E(f, f) = (1/2) sum_{x ~ y} (f(x) - f(y))^2 mu_xy.

Systems of at most DENSE_LIMIT unknowns are factored and solved as dense
Cholesky systems by `_lapack.cho_factor`, `_lapack.cho_solve` and
`_lapack.cho_inverse`, which hold the routines, the fallback and the thread
policy.  Only larger systems import scipy.sparse, for a sparse LU
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    BudgetExceeded,
    EmptySet,
    OverlappingSets,
    SolverFailure,
)
from .graphs import WeightedGraph, wire_vertices

DENSE_LIMIT = 5000
ALL_PAIRS_BUDGET = 3000


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
    1e-12 relative accuracy.

    A solver keeps g's vertex count, not g: g memoizes its solver, and a
    solver that held g would make the pair a reference cycle, which only
    the cyclic garbage collector frees, with the factor, at some later
    allocation.
    """

    def __init__(self, g: WeightedGraph):
        self.n = g.n
        self.dense = g.n - 1 <= DENSE_LIMIT
        if self.dense:
            a = _dense_grounded_laplacian(g)
            try:
                self._factor = _lapack.cho_factor(a)
            except np.linalg.LinAlgError as exc:
                raise SolverFailure(f"Cholesky factorization failed: {exc}")
        else:
            from scipy.sparse.linalg import splu

            self._red = _grounded_laplacian(g)
            try:
                self._lu = splu(self._red)
            except RuntimeError as exc:
                raise SolverFailure(f"sparse LU factorization failed: {exc}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve L u = b with u(0) = 0; b is indexed by all vertices.

        A b holding a NaN or an infinity raises ValueError.  The dense
        factor was checked finite when it was made, so the dense solve
        skips cho_solve's own scan of it and of b.
        """
        b_red = np.asarray_chkfinite(b, dtype=float)[1:]
        if self.dense:
            u_red = _lapack.cho_solve(self._factor, b_red)
        else:
            u_red = self._lu.solve(b_red)
            u_red += self._lu.solve(b_red - self._red @ u_red)
        u = np.zeros(self.n)
        u[1:] = u_red
        return u

    def reduced_inverse(self) -> np.ndarray:
        """The inverse of the grounded Laplacian, Fortran-ordered; its row
        and column v - 1 belong to vertex v.  Dense solvers only."""
        if not self.dense:
            raise BudgetExceeded("full inverse is only available for dense solves")
        return _lapack.cho_inverse(self._factor)


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
    """All-pairs effective resistances with the resistance diameter."""

    matrix: np.ndarray
    r_diam: float   # max_{x,y} R(x,y)

    def rescaled(self) -> "RescaledResistance":
        return RescaledResistance(self.matrix / self.r_diam)


@dataclass(eq=False)
class RescaledResistance:
    """Resistances divided by the resistance diameter; max entry exactly 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not (np.min(m) >= 0.0 and np.max(m) == 1.0):
            raise SolverFailure("rescaled resistance must lie in [0, 1] with max exactly 1")


def resistance_matrix(g: WeightedGraph) -> ResistanceMatrix:
    """All-pairs resistance via the grounded inverse; refuses n > ALL_PAIRS_BUDGET."""
    if g.n > ALL_PAIRS_BUDGET:
        raise BudgetExceeded(f"all-pairs resistance on {g.n} vertices exceeds {ALL_PAIRS_BUDGET}")
    # R(x, y) = 0.5 * (S(x, y) + S(y, x)) with S(x, y) = ((d(x) + d(y)) -
    # G(x, y)) - G(y, x), for the inverse G of the grounded Laplacian with a
    # zero row and column 0 and d its diagonal; the goldens pin that order.
    # It is assembled in place, so that at most two n x n arrays are alive.
    # Its diagonal comes out exactly +0.0, as (2 d(x) - d(x)) - d(x).
    Gred = LaplacianSolver(g).reduced_inverse()  # the factor is freed here
    d = np.zeros(g.n)
    d[1:] = np.diag(Gred)
    R = np.add.outer(d, d)
    R[1:, 1:] -= Gred
    R[1:, 1:] -= Gred.T
    del Gred
    S = R + R.T
    S *= 0.5
    return ResistanceMatrix(matrix=S, r_diam=float(S.max()))


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
    buf = np.empty_like(d)  # (d[i, j] - d[i, k]) - d[k, j] for one k at a time
    for k in range(n):
        np.subtract(d, d[:, k][:, None], out=buf)
        np.subtract(buf, d[k, :][None, :], out=buf)
        worst = np.max(buf)
        if worst > tol:
            raise SolverFailure(f"triangle inequality violated through vertex {k} by {worst:.3e}")


def set_resistance(g: WeightedGraph, A, B) -> float:
    """Effective resistance between disjoint vertex sets A and B.

    Each set is wired into a single vertex (a perfect short) and the
    two-point resistance of the quotient is returned.  For singleton sets
    this is the plain pairwise resistance.
    """
    A, B = list(A), list(B)
    if not A or not B:
        raise EmptySet("set resistance needs two nonempty sets")
    for v in A + B:
        g.check_vertex(v)
    A, B = [int(a) for a in A], [int(b) for b in B]
    if set(A) & set(B):
        raise OverlappingSets(f"sets share vertices {sorted(set(A) & set(B))}")
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
