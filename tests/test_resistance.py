import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from resistwalk import (
    FamilySpec,
    GarsiaProfile,
    MetricContext,
    build_graph,
    effective_resistance,
    exp_abs_psi,
    gamma_functional,
    generate,
    power_volume,
    resistance_matrix,
    set_resistance,
    sqrt_gauge,
    validate_metric,
)
from resistwalk import _lapack, resistance
from resistwalk._lapack import ONE_THREAD_LIMIT
from resistwalk.errors import (
    BudgetExceeded,
    EmptySet,
    MissingValue,
    OverlappingSets,
    SolverFailure,
    UnknownVertex,
)
from resistwalk.resistance import (
    ALL_PAIRS_BUDGET,
    DENSE_LIMIT,
    LaplacianSolver,
    RescaledResistance,
    _dense_grounded_laplacian,
    _grounded_laplacian,
)

from graph_oracle import laplacian_dense
from test_graphs import random_connected_graphs
from test_lapack import without_lapack


def test_path_is_series_law():
    g = generate(FamilySpec("path", 10))
    R = resistance_matrix(g).matrix
    idx = np.arange(g.n)
    np.testing.assert_allclose(R, np.abs(idx[:, None] - idx[None, :]), atol=1e-10)


def test_sparse_branch_path_resistance():
    # DENSE_LIMIT + 1 unknowns take the sparse route: interior, endpoint and
    # adjacent pairs must all reproduce the series law
    g = generate(FamilySpec("path", DENSE_LIMIT + 1))
    for x, y in ((1668, 4994), (0, DENSE_LIMIT + 1), (2500, 2501)):
        assert effective_resistance(g, x, y) == pytest.approx(abs(x - y), rel=1e-12)
    assert not g._cache["solver"].dense
    with pytest.raises(BudgetExceeded):  # the full inverse needs the dense route
        g._cache["solver"].reduced_inverse()


def test_a_failed_sparse_factorization_raises_solver_failure(monkeypatch):
    import scipy.sparse.linalg

    def singular(a):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(resistance, "DENSE_LIMIT", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    with pytest.raises(SolverFailure, match="sparse LU factorization failed: Factor is exactly"):
        LaplacianSolver(generate(FamilySpec("gasket", 2)))


def test_grounded_laplacian_is_the_dense_minor():
    rng = np.random.default_rng(12)
    n = 30
    edges = [(int(rng.integers(v)), v, float(rng.uniform(0.1, 10.0))) for v in range(1, n)]
    edges += [(int(a), int(b), 1.0 / 3.0) for a, b in rng.integers(0, n, size=(20, 2)) if a != b]
    g = build_graph(edges)
    red = _grounded_laplacian(g)
    assert red.toarray().tobytes() == laplacian_dense(g)[1:, 1:].tobytes()
    # the dense route fills the same matrix, Fortran-ordered as toarray gives it
    dense = _dense_grounded_laplacian(g)
    assert dense.flags.f_contiguous and dense.tobytes() == red.toarray().tobytes()
    # the CSC arrays the sparse LU route factors are those of the CSR minor
    minor = csr_matrix(laplacian_dense(g))[1:][:, 1:].tocsc()
    for key in ("indptr", "indices", "data"):
        assert getattr(red, key).tobytes() == getattr(minor, key).tobytes()


def test_dense_factor_in_place_equals_the_copying_factor():
    # the solver factors its temporary dense minor in place
    g = generate(FamilySpec("gasket", 5))
    solver = LaplacianSolver(g)
    c, lower = cho_factor(_grounded_laplacian(g).toarray())
    assert solver.dense and not lower
    assert solver._factor.tobytes() == c.tobytes()


@pytest.mark.parametrize("dense_limit", [DENSE_LIMIT, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_right_hand_side_raises(bad, dense_limit, monkeypatch):
    # the dense solves skip cho_solve's own scan, so solve checks b itself,
    # every entry of it
    monkeypatch.setattr(resistance, "DENSE_LIMIT", dense_limit)
    g = generate(FamilySpec("gasket", 2))
    solver = LaplacianSolver(g)
    assert solver.dense == (dense_limit > 0)
    for v in (0, 3, g.n - 1):
        b = np.zeros(g.n)
        b[v] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve(b)
    b = np.zeros(g.n)
    b[[1, 7]] = 1.0, -1.0
    u = solver.solve(b)
    assert u[1] - u[7] == pytest.approx(effective_resistance(g, 1, 7), rel=1e-12)


# -- one BLAS thread for small dense systems -----------------------------------

# every family graph with at most ONE_THREAD_LIMIT unknowns
SMALL_GRAPHS = [("gasket", 1), ("gasket", 2), ("gasket", 3), ("gasket", 4), ("vicsek", 1),
                ("vicsek", 2), ("carpet", 0), ("carpet", 1), ("wired_carpet", 1),
                ("path", ONE_THREAD_LIMIT)]


@pytest.fixture
def two_blas_threads():
    """scipy's OpenBLAS at two threads, so that an uncapped solve is threaded
    on any host; the count found is restored afterwards."""
    blas = _lapack.openblas(_lapack.MODULES["scipy"])
    if blas is None:
        pytest.skip("scipy's OpenBLAS thread functions are not reachable")
    found = blas.get_num_threads()
    blas.set_num_threads(2)
    yield blas
    blas.set_num_threads(found)


def _solver_bytes(g):
    solver = LaplacianSolver(g)
    b = np.random.default_rng(g.n).standard_normal(g.n)
    return solver._factor.tobytes(), solver.reduced_inverse().tobytes(), solver.solve(b).tobytes()


@pytest.mark.parametrize("family,level", SMALL_GRAPHS)
def test_one_thread_cap_keeps_the_bits(family, level, two_blas_threads, monkeypatch):
    g = generate(FamilySpec(family, level))
    assert g.n - 1 <= ONE_THREAD_LIMIT
    capped = _solver_bytes(g)
    # the setter stubbed out: factor and solves run on two threads
    stub = two_blas_threads._replace(set_num_threads=lambda n: None)
    monkeypatch.setattr(_lapack, "openblas", lambda module: stub)
    assert _solver_bytes(g) == capped
    # the symbols missing: the cap does nothing
    monkeypatch.setattr(_lapack, "openblas", lambda module: None)
    assert _solver_bytes(g) == capped


def test_small_dense_solves_run_on_one_thread_and_restore_the_count(two_blas_threads,
                                                                    monkeypatch):
    seen = []

    def spy(fn):
        def call(*args, **kwargs):
            seen.append(two_blas_threads.get_num_threads())
            return fn(*args, **kwargs)
        return call

    # each call of dpotrf and dpotrs records the thread count it runs at
    found = _lapack.lapack

    def spied(module, names):
        routines, int_t = found(module, names)
        return tuple(spy(f) for f in routines), int_t

    monkeypatch.setattr(_lapack, "lapack", spied)
    small = LaplacianSolver(generate(FamilySpec("path", ONE_THREAD_LIMIT)))
    small.solve(np.ones(small.n))
    small.reduced_inverse()
    assert seen == [1, 1, 1] and two_blas_threads.get_num_threads() == 2
    with pytest.raises(ValueError):  # a right-hand side of the wrong length
        small.solve(np.ones(3))
    assert seen[-1] == 1 and two_blas_threads.get_num_threads() == 2
    # one unknown more keeps the thread count it finds
    seen.clear()
    large = LaplacianSolver(generate(FamilySpec("path", ONE_THREAD_LIMIT + 1)))
    large.solve(np.ones(large.n))
    large.reduced_inverse()
    assert seen == [2, 2, 2]

    def not_positive_definite(*args, **kwargs):
        seen.append(two_blas_threads.get_num_threads())
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(_lapack, "lapack", lambda module, names: (
        (not_positive_definite, None), ctypes.c_int))
    with pytest.raises(SolverFailure):
        LaplacianSolver(generate(FamilySpec("gasket", 2)))
    assert seen[-1] == 1 and two_blas_threads.get_num_threads() == 2


# -- the dense route: scipy's dpotrf and dpotrs through ctypes -------------------

# family graphs below and above ONE_THREAD_LIMIT unknowns
CHOLESKY_GRAPHS = [("gasket", 3), ("vicsek", 2), ("carpet", 1), ("gasket", 5), ("gasket", 6),
                   ("vicsek", 3), ("carpet", 2), ("wired_carpet", 2), ("path", 500)]


def _scipy_bytes(g):
    """The factor, a solve and the reduced inverse as scipy.linalg's
    cho_factor and cho_solve give them, at the thread count the solver uses."""
    with _lapack._one_thread(g.n - 1):
        c, lower = cho_factor(_grounded_laplacian(g).toarray(), check_finite=False)
        b = np.random.default_rng(g.n).standard_normal(g.n)
        x = np.zeros(g.n)
        x[1:] = cho_solve((c, lower), b[1:])
        return c.tobytes(), cho_solve((c, lower), np.eye(g.n - 1)).tobytes(), x.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("family,level", CHOLESKY_GRAPHS)
def test_the_ctypes_cholesky_has_the_bits_of_cho_factor_and_cho_solve(family, level, threads,
                                                                      two_blas_threads,
                                                                      monkeypatch):
    assert _lapack.environment()["laplacian_solve"] == ["scipy_dpotrf_", "scipy_dpotrs_"]  # the scipy wheel
    two_blas_threads.set_num_threads(threads)
    g = generate(FamilySpec(family, level))
    want = _scipy_bytes(g)
    assert _solver_bytes(g) == want
    assert two_blas_threads.get_num_threads() == threads
    # without the symbols the solver calls cho_factor and cho_solve themselves
    without_lapack(monkeypatch, _lapack.CHOLESKY)
    assert _lapack.environment()["laplacian_solve"] == "scipy.linalg"
    assert _solver_bytes(g) == want


class _NoSymbols:
    """A loaded library that exports none of the names looked up."""

    def __getattr__(self, name):
        raise AttributeError(name)


@pytest.mark.parametrize("found", ["no-library", "no-symbols"])
def test_a_failed_cholesky_lookup_falls_back_to_scipy_linalg(found, monkeypatch):
    def cdll(path):
        if found == "no-library":
            raise OSError(f"cannot load {path}")
        return _NoSymbols()

    monkeypatch.setattr(_lapack.ctypes, "CDLL", cdll)
    lookup = _lapack.lapack.__wrapped__  # past the cache
    assert lookup(_lapack.MODULES["scipy"], _lapack.CHOLESKY) is None
    monkeypatch.setattr(_lapack, "lapack", lookup)
    assert _lapack.environment()["laplacian_solve"] == "scipy.linalg"
    g = generate(FamilySpec("gasket", 3))
    assert effective_resistance(g, 0, 5) > 0


def test_a_matrix_that_is_not_positive_definite_fails_the_factorization():
    a = np.asfortranarray([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        _lapack.cho_factor(a)


def test_triangle_pairs():
    g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    for x, y in ((0, 1), (0, 2), (1, 2)):
        assert effective_resistance(g, x, y) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_parallel_edges_halve_resistance():
    g = build_graph([(0, 1, 1.0), (0, 1, 1.0)])
    assert effective_resistance(g, 0, 1) == pytest.approx(0.5, abs=1e-14)


def test_gasket_corner_resistance_ladder():
    # corner-to-corner resistance contracts by exactly 3/5 per level refinement
    expected = 2.0 / 3.0
    for level in range(5):
        g = generate(FamilySpec("gasket", level))
        c = g.meta["corners"]
        r = effective_resistance(g, c[0], c[1])
        assert r == pytest.approx(expected, abs=1e-9)
        expected *= 5.0 / 3.0


def test_vicsek_resistance_is_graph_distance():
    # on a tree of unit edges R is the hop count
    g = generate(FamilySpec("vicsek", 2))
    R = resistance_matrix(g).matrix
    hops = shortest_path(csr_matrix(laplacian_dense(g) < 0), directed=False, unweighted=True)
    assert hops.max() > 1
    np.testing.assert_allclose(R, hops, atol=1e-9)


def test_resistance_matrix_fields(graph_set):
    for g in graph_set.values():
        rm = resistance_matrix(g)
        off = ~np.eye(g.n, dtype=bool)
        assert rm.r_diam == pytest.approx(float(rm.matrix.max()), rel=1e-12)
        assert float(rm.matrix[off].min()) > 0
        np.testing.assert_allclose(rm.matrix, rm.matrix.T, atol=1e-12)
        assert np.all(np.diag(rm.matrix) == 0)


def _resistance_matrix_oracle(g):
    """The assembly resistance_matrix used to make, with five n x n arrays
    alive at its peak: the inverse as scipy's cho_solve gives it against
    np.eye, copied into a full G with zero row and column 0, then R with
    its diagonal set to 0.0.  Returns (R, r_diam)."""
    with _lapack._one_thread(g.n - 1):
        c, lower = cho_factor(_grounded_laplacian(g).toarray(), check_finite=False)
        Gred = cho_solve((c, lower), np.eye(g.n - 1))
    Gfull = np.zeros((g.n, g.n))
    Gfull[1:, 1:] = Gred
    d = np.diag(Gfull)
    R = d[:, None] + d[None, :] - Gfull - Gfull.T
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 0.0)
    return R, float(R[~np.eye(g.n, dtype=bool)].max())


WEIGHTED_EDGES = [(0, 1, 0.3), (1, 2, 2.5), (2, 0, 1.7), (2, 3, 0.9), (3, 4, 4.1), (4, 1, 0.05),
                  (0, 4, 1.1), (4, 5, 0.7), (5, 6, 3.3), (6, 3, 0.2)]


@pytest.mark.parametrize("graph", [("gasket", 5), ("vicsek", 3), ("carpet", 2), "weighted"],
                         ids=["gasket-5", "vicsek-3", "carpet-2", "weighted"])
def test_the_in_place_assembly_has_the_bits_of_the_five_array_one(graph):
    g = build_graph(WEIGHTED_EDGES) if graph == "weighted" else generate(FamilySpec(*graph))
    R, r_diam = _resistance_matrix_oracle(g)
    rm = resistance_matrix(g)
    assert rm.matrix.tobytes() == R.tobytes() and rm.matrix.flags.c_contiguous
    assert rm.r_diam == r_diam
    assert 0 < rm.matrix[~np.eye(g.n, dtype=bool)].min() < rm.r_diam


def test_the_all_pairs_matrix_peaks_near_two_n_squared_doubles():
    g = generate(FamilySpec("gasket", 6))
    resistance_matrix(g)  # the routines are looked up and bound once, outside the count
    tracemalloc.start()
    try:
        resistance_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the factor and the inverse, then the inverse and R, then R and its
    # symmetrized sum: two n x n arrays at a time, where the oracle's
    # assembly holds five
    assert peak < 2.25 * g.n ** 2 * 8, f"{peak / (g.n ** 2 * 8):.2f} n**2 doubles"


def test_metric_axioms_hold(graph_set):
    for g in graph_set.values():
        validate_metric(resistance_matrix(g).matrix)


def test_metric_violation_detected():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(SolverFailure):
        validate_metric(d)


def _first_violation_oracle(d):
    """The message of the triangle check as a loop of two fresh n x n
    temporaries per k gives it, or None."""
    tol = 1e-10 * max(1.0, float(np.max(d)))
    for k in range(len(d)):
        worst = np.max(d - d[:, k][:, None] - d[k, :][None, :])
        if worst > tol:
            return f"triangle inequality violated through vertex {k} by {worst:.3e}"
    return None


@pytest.mark.parametrize("i, j, by", [(0, 1, 2.5), (3, 97, 1e-3), (0, 50, -1e-3), (50, 51, 7.5),
                                      (98, 99, 2.125)])
def test_the_triangle_check_names_the_first_vertex_and_worst_value_of_the_loop(i, j, by):
    d = resistance_matrix(generate(FamilySpec("path", 99))).matrix
    d[i, j] = d[j, i] = d[i, j] + by
    want = _first_violation_oracle(d)
    with pytest.raises(SolverFailure) as raised:
        validate_metric(d)
    assert want is not None and str(raised.value) == want


@pytest.mark.parametrize("d, message", [
    ([[0.0, 1.0], [1.5, 0.0]], "not symmetric"),
    ([[0.5, 1.0], [1.0, 0.0]], "nonzero diagonal"),
    ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "must be positive"),
    ([[0.0, -1.0], [-1.0, 0.0]], "must be positive"),
], ids=["asymmetric", "diagonal", "zero-distance", "negative-distance"])
def test_each_metric_axiom_check_names_its_failure(d, message):
    # each of these breaks one axiom and keeps the triangle inequality
    with pytest.raises(SolverFailure, match=message):
        validate_metric(np.array(d))
    validate_metric(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("i, j, value", [(0, 1, math.nan), (0, 2, math.inf), (1, 1, math.nan)],
                         ids=["nan-off-diagonal", "inf-off-diagonal", "nan-on-diagonal"])
def test_a_non_finite_distance_is_refused(i, j, value):
    # NaN fails every comparison and inf makes the slack infinite, so the
    # axiom checks alone let each of these through
    d = np.ones((3, 3)) - np.eye(3)
    d[i, j] = d[j, i] = value
    with pytest.raises(SolverFailure, match="non-finite"):
        validate_metric(d)
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(SolverFailure, match="non-finite"):
        MetricContext(g, d)


@pytest.mark.parametrize("m", [
    [[0.0, -0.5], [-0.5, 1.0]],
    [[0.0, 0.5], [0.5, 0.0]],
    [[0.0, np.nextafter(1.0, 0.0)], [np.nextafter(1.0, 0.0), 0.0]],
    [[0.0, np.nextafter(1.0, 2.0)], [np.nextafter(1.0, 2.0), 0.0]],
], ids=["negative", "max-half", "max-below-1", "max-above-1"])
def test_rescaled_resistance_refuses_values_outside_zero_one(m):
    with pytest.raises(SolverFailure, match=r"lie in \[0, 1\] with max exactly 1"):
        RescaledResistance(np.array(m))
    RescaledResistance(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_all_pairs_above_the_budget_is_refused():
    g = generate(FamilySpec("path", ALL_PAIRS_BUDGET))  # one vertex over
    with pytest.raises(BudgetExceeded, match=f"{ALL_PAIRS_BUDGET + 1} vertices exceeds"):
        resistance_matrix(g)


def test_values_not_one_per_vertex_are_refused():
    g = generate(FamilySpec("path", 3))
    ctx = MetricContext(g, resistance_matrix(g).matrix)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=power_volume(1.0, 1.0), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    # f = 0 makes every psi term psi(0) = 1, so Gamma is m(G)^2 = 36
    assert gamma_functional(g, ctx, np.zeros(g.n), profile) == 36.0
    for bad in (np.zeros(g.n + 1), np.zeros(g.n - 1), np.zeros((g.n, 1))):
        with pytest.raises(MissingValue, match=f"expected {g.n} values"):
            gamma_functional(g, ctx, bad, profile)


def test_an_infinite_mass_raises_before_the_dense_factorization():
    # two finite weights of 1e308 give the middle vertex an infinite mu; the
    # solver checks the grounded matrix's sparse values, which the dense
    # matrix holds besides zeros, and raises the ValueError cho_factor would
    with np.errstate(over="ignore"):
        g = build_graph([(0, 1, 1e308), (1, 2, 1e308)])
    assert np.isinf(g.mu[1])
    with pytest.raises(ValueError, match="infs or NaNs"):
        LaplacianSolver(g)


def test_same_vertex_is_zero():
    g = generate(FamilySpec("path", 4))
    assert effective_resistance(g, 2, 2) == 0.0


def test_set_resistance_matches_pair():
    g = generate(FamilySpec("gasket", 2))
    c = g.meta["corners"]
    assert set_resistance(g, [c[0]], [c[1]]) == pytest.approx(
        effective_resistance(g, c[0], c[1]), rel=1e-10
    )


def test_set_resistance_wires_each_set_of_more_than_one_vertex():
    # 0 - 1 - 2 - 3 with unit conductances; the first listed vertex of the
    # larger set is the one a missed wiring would measure from
    g = generate(FamilySpec("path", 3))
    assert set_resistance(g, [0], [3, 1]) == pytest.approx(1.0, rel=1e-12)
    assert set_resistance(g, [0, 2], [3]) == pytest.approx(1.0, rel=1e-12)
    assert set_resistance(g, [3, 2], [0, 1]) == pytest.approx(1.0, rel=1e-12)


def test_set_resistance_refuses_what_effective_resistance_refuses():
    # each entry is checked as given, before int() could turn True into 1
    # or 2.7 into 2
    g = generate(FamilySpec("gasket", 2))
    for A, B in (([True], [2.7]), ([0, 1.9], [5]), ([0], [np.float64(3.0)])):
        with pytest.raises(UnknownVertex):
            effective_resistance(g, A[-1], B[-1])
        with pytest.raises(UnknownVertex):
            set_resistance(g, A, B)
    assert set_resistance(g, [np.int64(0)], [np.int64(5)]) == effective_resistance(g, 0, 5)


def test_set_resistance_monotone_in_sets():
    # growing either electrode can only lower the resistance
    g = generate(FamilySpec("carpet", 1))
    xs = np.array([g.coords[v][0] for v in range(g.n)])
    left = [v for v in range(g.n) if np.isclose(xs[v], xs.min())]
    right = [v for v in range(g.n) if np.isclose(xs[v], xs.max())]
    full = set_resistance(g, left, right)
    assert set_resistance(g, left[:1], right) >= full - 1e-12
    with pytest.raises(EmptySet):
        set_resistance(g, [], right)
    with pytest.raises(OverlappingSets):
        set_resistance(g, left, left)


def test_wired_at_most_unwired():
    g = generate(FamilySpec("carpet", 1))
    gw = generate(FamilySpec("wired_carpet", 1))
    vmap = gw.meta["vertex_map"]
    interior = [v for v in range(g.n) if v not in set(g.meta["boundary"])]
    Ru = resistance_matrix(g).matrix
    Rw = resistance_matrix(gw).matrix
    for i, x in enumerate(interior[:12]):
        for y in interior[i + 1 : i + 6]:
            assert Rw[vmap[x], vmap[y]] <= Ru[x, y] + 1e-10


def test_rescaled_resistance():
    g = generate(FamilySpec("gasket", 2))
    rm = resistance_matrix(g)
    rs = rm.rescaled()
    np.testing.assert_allclose(rs.matrix, rm.matrix / rm.r_diam, rtol=1e-12)
    assert rs.matrix.max() == pytest.approx(1.0, rel=1e-12)


@given(random_connected_graphs())
@settings(max_examples=40, deadline=None)
def test_resistance_metric_property(edges):
    g = build_graph(edges)
    R = resistance_matrix(g).matrix
    validate_metric(R)
    # series upper bound: R <= resistance length of any path, here via BFS tree
    for u, v, w in g.edges:
        assert R[u, v] <= 1.0 / w + 1e-9
