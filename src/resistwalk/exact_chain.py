"""Exact finite-chain computations for the walk: hit-before-return
probabilities, hitting and return times, and excursion visit laws.

Everything here is linear algebra on the transition matrix
P(x, y) = mu_xy / mu_x, independent of simulation.  These routines provide
the oracle side of identities such as

    P_x(tau_y < tau_x^+) = 1 / (mu_x R(x, y))
    E_x tau_x^+          = m(G) / mu_x
    E_x tau_y + E_y tau_x = m(G) R(x, y)

which the test suite checks against the resistance module.  A graph's
transition matrix and the solves made from it are kept in the graph's one
memo, `WeightedGraph._cache`; public functions return fresh values.

Every linear system here is (I - P)[off, off] x = b, solved by `_solve`
through `_lapack.solve_transposed`, from one LU per matrix, with
np.linalg.solve's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import HorizonTooLarge, SameVertex
from .graphs import WeightedGraph, _frozen, _jsonable

DEGENERATE_TOL = 1e-9


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic transition matrix with its stationary distribution.

    P is held in Fortran order, as the transpose of the C-ordered array
    P.T.  P.T is written from the edge arrays: its entry (y, x) is
    mu_xy / mu_x, the one division W / mu[:, None] makes for P[x, y].
    """

    P: np.ndarray
    mu: np.ndarray
    stationary: np.ndarray  # mu / m(G)


def transition_matrix(g: WeightedGraph) -> TransitionMatrix:
    PT = np.zeros((g.n, g.n))
    PT[g.ev, g.eu] = g.ew / g.mu[g.eu]
    PT[g.eu, g.ev] = g.ew / g.mu[g.ev]
    return TransitionMatrix(P=PT.T, mu=g.mu.copy(), stationary=g.mu / g.total_mass)


def _transition(g: WeightedGraph) -> np.ndarray:
    """g's transition matrix transposed, P.T, C-ordered and read-only, built
    once per graph.  Its rows are P's columns, and its storage is P's in the
    Fortran order LAPACK reads."""
    return g._derived("transition", lambda: _frozen(transition_matrix(g).P.T))


def _solve(g: WeightedGraph, cut: tuple, rhs) -> list[np.ndarray]:
    """x with (I - P)[off, off] x = b for each b in rhs, from one LU, where
    off is every vertex but those of the sorted tuple `cut`.

    The matrix is copied from P.T block by block, between the cut vertices,
    already in Fortran order and negated on the way; np.eye(k) - Q holds the
    same doubles.
    """
    PT = _transition(g)
    k = g.n - len(cut)
    A = np.empty((k, k))
    # the r-th run of kept vertices, start..stop - 1, sits at index start - r of A
    starts, stops = (0, *(c + 1 for c in cut)), (*cut, g.n)
    runs = [(start, stop, start - r) for r, (start, stop) in enumerate(zip(starts, stops))]
    for r0, r1, i in runs:
        for c0, c1, j in runs:
            # 0 - q rather than -q: zeros stay +0.0, as in np.eye(k) - Q
            np.subtract(0.0, PT[r0:r1, c0:c1], out=A[i:i + r1 - r0, j:j + c1 - c0])
    A.flat[:: k + 1] += 1.0  # 1 + (-q) == 1 - q
    return _lapack.solve_transposed(A, rhs)


def _hit_before_return_pair(g: WeightedGraph, a: int, b: int) -> tuple[float, float]:
    """(P_a(tau_b < tau_a^+), P_b(tau_a < tau_b^+)) for a < b: both systems
    share the matrix (I - P) restricted to the other vertices."""
    P = _transition(g).T
    off = ~np.isin(np.arange(g.n), (a, b))
    p_ab, p_ba = P[a, b], P[b, a]
    if off.any():
        h_ab, h_ba = _solve(g, (a, b), [P[off, b], P[off, a]])
        p_ab += float(P[a, off] @ h_ab)
        p_ba += float(P[b, off] @ h_ba)
    return float(p_ab), float(p_ba)


def hit_before_return_prob(g: WeightedGraph, x: int, y: int) -> float:
    """P_x(tau_y < tau_x^+): hit y strictly before returning to x.

    First-step analysis: with h(w) = P_w(tau_y < tau_x) harmonic off {x, y},
    the answer is P(x, y) + sum_w P(x, w) h(w).  The pair (x, y) and (y, x)
    are solved together and kept in the graph's memo.
    """
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        raise SameVertex("x and y must differ")
    a, b = sorted((int(x), int(y)))
    pair = g._derived(("hit_before_return", a, b), lambda: _hit_before_return_pair(g, a, b))
    return pair[0 if x == a else 1]


def _hitting_times_to(g: WeightedGraph, y: int) -> np.ndarray:
    """E_x tau_y for every x, read-only, one solve per (graph, y)."""

    def build():
        out = np.zeros(g.n)
        out[np.arange(g.n) != y] = _solve(g, (y,), [np.ones(g.n - 1)])[0]
        return _frozen(out)

    return g._derived(("hitting_times_to", int(y)), build)


def expected_hitting_time(g: WeightedGraph, x: int, y: int) -> float:
    g.check_vertex(x)
    if x == y:
        raise SameVertex("x and y must differ")
    g.check_vertex(y)
    return float(_hitting_times_to(g, y)[x])


def expected_return_time(g: WeightedGraph, x: int) -> float:
    """E_x tau_x^+ = 1 + sum_w P(x, w) E_w tau_x."""
    g.check_vertex(x)
    # a contiguous copy of P's row, so the dot product reads it with unit stride
    row = _transition(g)[:, x].copy()
    return float(1.0 + row @ _hitting_times_to(g, x))


@dataclass(eq=False)
class FirstPassageLaw:
    """A (possibly truncated) law on nonnegative integers.

    pmf[i] is the probability of the value offset + i; tail_mass is the
    probability beyond the last tabulated value.  Total mass is 1 up to
    floating point accumulation.
    """

    description: str
    params: dict
    offset: int
    pmf: np.ndarray
    tail_mass: float

    def to_jsonable(self) -> dict:
        return {
            "type": self.description,
            "params": _jsonable(self.params),
            "offset": self.offset,
            "pmf": [float(p) for p in self.pmf],
            "tail_mass": float(self.tail_mass),
        }


def excursion_visit_law(g: WeightedGraph, x: int, y: int, kmax: int) -> FirstPassageLaw:
    """Law of N, the number of visits to y during one excursion of the walk
    from x back to x, for k = 0..kmax.

    By the Markov property the law is p * Geometric(a) glued to an atom at 0:
    p = P_x(tau_y < tau_x^+) is the chance the excursion reaches y at all and
    a = P_y(tau_x < tau_y^+) ends the y-visit run.  Both enter through
    first-step analysis, not through resistances; comparing against
    excursion_visit_law_from_resistance is a genuine two-route check.

    The local time increment eta accrued at y satisfies eta = N / mu_y; its
    first two moments are reported in params.
    """
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        raise SameVertex("x and y must differ")
    if kmax < 0:
        raise HorizonTooLarge("kmax must be nonnegative")
    p = hit_before_return_prob(g, x, y)
    a = hit_before_return_prob(g, y, x)
    mu_x = float(g.mu[x])
    mu_y = float(g.mu[y])
    pmf = np.zeros(kmax + 1)
    pmf[0] = 1.0 - p
    if kmax >= 1:
        ks = np.arange(1, kmax + 1)
        pmf[1:] = p * a * (1.0 - a) ** (ks - 1)
    tail = p * (1.0 - a) ** kmax
    m1 = p / a
    m2 = p * (2.0 - a) / (a * a)
    mean_eta = m1 / mu_y
    second_central = m2 / mu_y**2 - 2.0 * mean_eta / mu_x + 1.0 / mu_x**2
    return FirstPassageLaw(
        description="excursion-visits",
        params={
            "x": int(x),
            "y": int(y),
            "p_reach": p,
            "p_end": a,
            "mean_eta": mean_eta,
            "second_central_moment_eta": second_central,
        },
        offset=0,
        pmf=pmf,
        tail_mass=float(tail),
    )


def excursion_visit_law_from_resistance(
    mu_x: float, mu_y: float, R: float, kmax: int
) -> FirstPassageLaw:
    """Closed-form excursion-visit law from vertex measures and resistance.

    General form: P(N = k) = (1/(mu_x R)) (1 - 1/(mu_y R))^(k-1) (1/(mu_y R))
    for k >= 1, atom 1 - 1/(mu_x R) at zero.  When mu_y R = 1 (y hangs off x
    by a single edge carrying all of y's conductance) the law degenerates to
    two points, P(N = 1) = 1/(mu_x R) and P(N = 0) = 1 - 1/(mu_x R); the
    degenerate route is taken when |mu_y R - 1| < 1e-9.
    """
    if kmax < 0:
        raise HorizonTooLarge("kmax must be nonnegative")
    p = 1.0 / (mu_x * R)
    a = 1.0 / (mu_y * R)
    degenerate = abs(mu_y * R - 1.0) < DEGENERATE_TOL
    pmf = np.zeros(kmax + 1)
    pmf[0] = 1.0 - p
    if degenerate:
        if kmax >= 1:
            pmf[1] = p
        tail = 0.0 if kmax >= 1 else p
        route = "two-point"
    else:
        if kmax >= 1:
            ks = np.arange(1, kmax + 1)
            pmf[1:] = p * a * (1.0 - a) ** (ks - 1)
        tail = p * (1.0 - a) ** kmax
        route = "geometric"
    mean_eta = 1.0 / mu_x
    second_central = 2.0 * (1.0 - 1.0 / (mu_y * R)) * R / mu_x + 1.0 / (mu_x * mu_y) - 1.0 / mu_x**2
    return FirstPassageLaw(
        description="excursion-visits-closed-form",
        params={
            "route": route,
            "mu_x": float(mu_x),
            "mu_y": float(mu_y),
            "R": float(R),
            "mean_eta": mean_eta,
            "second_central_moment_eta": second_central,
        },
        offset=0,
        pmf=pmf,
        tail_mass=float(tail),
    )
