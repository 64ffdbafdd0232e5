import ctypes
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import resistwalk
from resistwalk import (
    _lapack,
    FamilySpec,
    build_graph,
    effective_resistance,
    excursion_visit_law,
    excursion_visit_law_from_resistance,
    exact_chain,
    expected_hitting_time,
    expected_return_time,
    generate,
    hit_before_return_prob,
    transition_matrix,
)
from resistwalk.errors import HorizonTooLarge, SameVertex
from resistwalk.exact_chain import _hitting_times_to

from test_lapack import without_lapack


def test_transition_matrix_rows_sum_to_one(graph_set):
    for g in graph_set.values():
        P = transition_matrix(g)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)


def test_hit_before_return_frozen_path():
    # endpoint of the unit path: mu_0 = 1, R(0, 10) = 10, so the chance of
    # reaching the far end before returning is exactly 1/10
    g = generate(FamilySpec("path", 10))
    assert hit_before_return_prob(g, 0, 10) == pytest.approx(0.1, abs=1e-12)


def test_hit_before_return_identity(graph_set):
    rng = np.random.default_rng(5)
    for g in graph_set.values():
        pairs = rng.integers(0, g.n, size=(8, 2))
        for x, y in pairs:
            if x == y:
                continue
            p = hit_before_return_prob(g, int(x), int(y))
            R = effective_resistance(g, int(x), int(y))
            assert p == pytest.approx(1.0 / (g.mu[x] * R), abs=1e-10)


def test_return_time_identity(graph_set):
    for g in graph_set.values():
        for x in (0, g.n // 2, g.n - 1):
            assert expected_return_time(g, x) == pytest.approx(
                g.total_mass / g.mu[x], rel=1e-10
            )


def test_commute_time_identity(graph_set):
    rng = np.random.default_rng(7)
    for g in graph_set.values():
        pairs = rng.integers(0, g.n, size=(6, 2))
        for x, y in pairs:
            if x == y:
                continue
            commute = expected_hitting_time(g, int(x), int(y)) + expected_hitting_time(
                g, int(y), int(x)
            )
            R = effective_resistance(g, int(x), int(y))
            assert commute == pytest.approx(g.total_mass * R, rel=1e-8)


def test_same_vertex_rejected():
    g = generate(FamilySpec("path", 4))
    with pytest.raises(SameVertex):
        hit_before_return_prob(g, 1, 1)


def test_excursion_law_frozen_short_path():
    # path 0-1-2, x=0, y=1: p = 1, a = 1/2, so P(N = k) = 2^{-k} for k >= 1
    g = generate(FamilySpec("path", 2))
    law = excursion_visit_law(g, 0, 1, kmax=30)
    assert law.pmf[0] == pytest.approx(0.0, abs=1e-14)
    for k in range(1, 12):
        assert law.pmf[k] == pytest.approx(2.0**-k, abs=1e-12)


def test_excursion_law_degenerate_edge():
    # single unit edge: mu_y R = 1, the visit count is deterministically 1
    g = build_graph([(0, 1, 1.0)])
    law = excursion_visit_law(g, 0, 1, kmax=8)
    assert law.pmf[1] == pytest.approx(1.0, abs=1e-14)
    assert float(law.pmf[2:].sum() + law.tail_mass) == pytest.approx(0.0, abs=1e-13)


def test_excursion_dual_routes_agree(graph_set):
    # taboo-matrix pmf vs the closed geometric form from the resistance
    rng = np.random.default_rng(11)
    for g in graph_set.values():
        pairs = rng.integers(0, g.n, size=(4, 2))
        for x, y in pairs:
            if x == y:
                continue
            law_fsa = excursion_visit_law(g, int(x), int(y), kmax=40)
            R = effective_resistance(g, int(x), int(y))
            law_res = excursion_visit_law_from_resistance(
                float(g.mu[x]), float(g.mu[y]), R, kmax=40
            )
            np.testing.assert_allclose(law_fsa.pmf, law_res.pmf, atol=1e-10)


def test_excursion_moments():
    # mean N = mu_y / mu_x and E (N/mu_y)^2 <= 2 R / mu_x
    rng = np.random.default_rng(13)
    for family, level in (("gasket", 2), ("vicsek", 1), ("carpet", 1)):
        g = generate(FamilySpec(family, level))
        pairs = rng.integers(0, g.n, size=(5, 2))
        for x, y in pairs:
            if x == y:
                continue
            x, y = int(x), int(y)
            R = effective_resistance(g, x, y)
            p = 1.0 / (g.mu[x] * R)
            a = 1.0 / (g.mu[y] * R)
            mean = p / a
            second = p * (2.0 - a) / a**2
            assert mean == pytest.approx(g.mu[y] / g.mu[x], rel=1e-10)
            assert second / g.mu[y] ** 2 <= 2.0 * R / g.mu[x] + 1e-12
            law = excursion_visit_law(g, x, y, kmax=600)
            ks = np.arange(len(law.pmf))
            assert float(ks @ law.pmf) <= mean + 1e-8


def test_first_passage_law_survival():
    g = generate(FamilySpec("path", 2))
    law = excursion_visit_law(g, 0, 1, kmax=20)
    # the pmf and the tail telescope: P(N >= 1) = 1, P(N >= 2) = 1/2, ...
    for k in range(1, 8):
        assert float(law.pmf[k:].sum() + law.tail_mass) == pytest.approx(2.0 ** -(k - 1), abs=1e-10)
    # past the table only the tail survives
    assert float(law.pmf.sum() + law.tail_mass) == pytest.approx(1.0, abs=1e-12)
    assert law.tail_mass == pytest.approx(2.0**-20, rel=1e-12)


def random_weighted_graph(seed, n=12):
    """A random spanning tree plus a few chords, weights spread over 1e-2..1e2."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(v)), v, float(10.0 ** rng.uniform(-2, 2))) for v in range(1, n)]
    for _ in range(n // 2):
        u, v = (int(a) for a in rng.choice(n, size=2, replace=False))
        edges.append((u, v, float(10.0 ** rng.uniform(-2, 2))))
    return build_graph(edges)


def test_oracle_sequence_builds_one_transition_matrix(monkeypatch):
    # what the `oracle` command asks of one graph: the hit-before-return
    # pair (x, y) and (y, x), which share one factorization, and the hitting
    # times to x and to y, each made once, all from one transition matrix
    calls = Counter()
    rhs = []
    build, solve = exact_chain.transition_matrix, _lapack.solve_transposed

    def counted_build(g):
        calls["build"] += 1
        return build(g)

    def counted_solve(at, bs):
        calls["factorization"] += 1
        rhs.append(len(bs))
        return solve(at, bs)

    monkeypatch.setattr(exact_chain, "transition_matrix", counted_build)
    monkeypatch.setattr(_lapack, "solve_transposed", counted_solve)
    g = generate(FamilySpec("gasket", 2))
    x, y = 0, 7
    excursion_visit_law(g, x, y, 16)
    hit_before_return_prob(g, x, y)
    expected_return_time(g, x)
    expected_hitting_time(g, x, y)
    expected_hitting_time(g, y, x)
    assert calls == {"build": 1, "factorization": 3}
    assert rhs == [2, 1, 1]


def reference_transition(g):
    """P = W / mu[:, None], C-ordered, from the edge list."""
    W = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        W[u, v] = W[v, u] = w
    return W / g.mu[:, None]


def reference_hit_before_return(P, x, y):
    """P_x(tau_y < tau_x^+) and the harmonic h off {x, y}, each system solved
    on its own by np.linalg.solve on np.eye(k) - Q."""
    off = ~np.isin(np.arange(len(P)), (x, y))
    Q = P[np.ix_(off, off)]
    h = np.linalg.solve(np.eye(len(Q)) - Q, P[off, y])
    return float(P[x, y] + float(P[x, off] @ h)), h


def reference_hitting_times_to(P, y):
    off = np.arange(len(P)) != y
    out = np.zeros(len(P))
    out[off] = np.linalg.solve(np.eye(len(P) - 1) - P[np.ix_(off, off)], np.ones(len(P) - 1))
    return out


def fresh_graph(name):
    if name == "weighted":
        return random_weighted_graph(8)
    family, level = name.rsplit("-", 1)
    return generate(FamilySpec(family, int(level)))


def solve_mismatches(g, pairs, monkeypatch):
    """The ordered pairs (and hitting-time targets, as (y, y)) whose matrix,
    solutions or values on g differ in any bit from the np.linalg.solve
    route, return times included; each unordered pair of `pairs` is solved
    once, for both directions."""
    solved = []
    solve = _lapack.solve_transposed

    def recorded(at, bs):
        matrix = at.tobytes()
        solved.append((matrix, solve(at, bs)))
        return solved[-1][1]

    monkeypatch.setattr(_lapack, "solve_transposed", recorded)
    P = reference_transition(g)
    bad = []
    for a, b in pairs:
        hit_ab = hit_before_return_prob(g, a, b)
        hit_ba = hit_before_return_prob(g, b, a)
        matrix, (h_ab, h_ba) = solved.pop()
        off = ~np.isin(np.arange(g.n), (a, b))
        # np.eye(k) - Q in Fortran order, signed zeros included
        if matrix != (np.eye(off.sum()) - P[np.ix_(off, off)]).T.tobytes():
            bad.append((a, b))
        for (x, y), hit, h in (((a, b), hit_ab, h_ab), ((b, a), hit_ba, h_ba)):
            want_hit, want_h = reference_hit_before_return(P, x, y)
            if not (hit == want_hit and np.array_equal(h, want_h)):
                bad.append((x, y))
    for y in sorted({v for pair in pairs for v in pair}):
        times = reference_hitting_times_to(P, y)
        if not (np.array_equal(_hitting_times_to(g, y), times)
                and expected_return_time(g, y) == float(1.0 + P[y] @ times)):
            bad.append((y, y))
    return bad


@pytest.mark.parametrize("name", ["gasket-2", "gasket-3", "vicsek-1", "vicsek-2", "carpet-1", "weighted"])
def test_shared_factorization_has_the_bits_of_np_linalg_solve(name, monkeypatch):
    assert _lapack.lapack(_lapack.MODULES["numpy"], _lapack.LU) is not None  # the numpy wheel links its LAPACK
    g = fresh_graph(name)
    pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
    assert solve_mismatches(g, pairs, monkeypatch) == []


class _NoLapack:
    """A loaded library that exports none of the names looked up."""

    def __getattr__(self, name):
        raise AttributeError(name)


@pytest.mark.parametrize("found", ["no-library", "no-symbols"])
def test_a_failed_lapack_lookup_falls_back_to_np_linalg_solve(found, monkeypatch):
    def cdll(path):
        if found == "no-library":
            raise OSError(f"cannot load {path}")
        return _NoLapack()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    lookup = _lapack.lapack.__wrapped__  # past the cache
    assert lookup(_lapack.MODULES["numpy"], _lapack.LU) is None
    monkeypatch.setattr(_lapack, "lapack", lookup)
    assert _lapack.environment()["exact_chain_solve"] == "np.linalg.solve"


@pytest.mark.parametrize("name", ["gasket-3", "weighted"])
def test_without_numpy_lapack_np_linalg_solve_gives_the_same_bits(name, monkeypatch):
    without_lapack(monkeypatch, _lapack.LU)
    assert _lapack.environment()["exact_chain_solve"] == "np.linalg.solve"
    g = fresh_graph(name)
    pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
    assert solve_mismatches(g, pairs, monkeypatch) == []


# Compares sampled gasket-4 pairs (121 unknowns) in a fresh interpreter at the
# thread count argv[1], set as in tests/test_golden_outputs.py: the
# environment sets it as OpenBLAS loads, and a set call keeps it there.
_SAMPLED_PAIRS = """
import json, sys
import numpy as np
import pytest
from resistwalk import FamilySpec, generate
from resistwalk._lapack import MODULES, openblas
from test_exact_chain import solve_mismatches

blas = openblas(MODULES["numpy"])
blas.set_num_threads(int(sys.argv[1]))
g = generate(FamilySpec("gasket", 4))
rng = np.random.default_rng(4)
pairs = [tuple(sorted(int(v) for v in rng.choice(g.n, size=2, replace=False))) for _ in range(8)]
with pytest.MonkeyPatch.context() as monkeypatch:
    bad = solve_mismatches(g, pairs, monkeypatch)
print(json.dumps({"threads": blas.get_num_threads(), "bad": bad}))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_factorization_has_the_bits_of_np_linalg_solve_at_blas_threads(threads):
    paths = [str(Path(resistwalk.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", _SAMPLED_PAIRS, str(threads)], env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    assert json.loads(proc.stdout) == {"threads": threads, "bad": []}


@pytest.mark.parametrize("route", ["lapack", "np.linalg.solve"])
def test_a_singular_system_raises_linalg_error(route, monkeypatch):
    if route == "lapack":
        assert _lapack.lapack(_lapack.MODULES["numpy"], _lapack.LU) is not None
    else:
        without_lapack(monkeypatch, _lapack.LU)
    for at in (np.zeros((3, 3)), np.ones((3, 3))):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _lapack.solve_transposed(at, [np.ones(3), np.zeros(3)])


def test_expected_hitting_time_rejects_one_vertex():
    g = generate(FamilySpec("path", 4))
    assert expected_hitting_time(g, 0, 4) == pytest.approx(16.0, rel=1e-12)  # L^2 on a path
    with pytest.raises(SameVertex):
        expected_hitting_time(g, 2, 2)


def test_excursion_visit_law_rejects_one_vertex_before_any_solve(monkeypatch):
    g = generate(FamilySpec("path", 2))
    assert excursion_visit_law(g, 0, 1, kmax=4).pmf[1] == pytest.approx(0.5, abs=1e-12)

    def no_solve(*args):
        raise AssertionError("an excursion from x to x reached a solve")

    monkeypatch.setattr(exact_chain, "hit_before_return_prob", no_solve)
    with pytest.raises(SameVertex):
        excursion_visit_law(g, 1, 1, kmax=4)


def test_excursion_visit_law_rejects_a_negative_kmax():
    # path 0-1-2, x=0, y=1: p = 1, so at kmax = 0 all the mass is in the tail
    g = generate(FamilySpec("path", 2))
    law = excursion_visit_law(g, 0, 1, kmax=0)
    assert list(law.pmf) == [0.0] and law.tail_mass == 1.0
    with pytest.raises(HorizonTooLarge):
        excursion_visit_law(g, 0, 1, kmax=-1)


def test_closed_form_excursion_law_rejects_a_negative_kmax():
    # mu_x R = 1, mu_y R = 2: p = 1, so at kmax = 0 all the mass is in the tail
    law = excursion_visit_law_from_resistance(1.0, 2.0, 1.0, kmax=0)
    assert list(law.pmf) == [0.0] and law.tail_mass == 1.0
    with pytest.raises(HorizonTooLarge):
        excursion_visit_law_from_resistance(1.0, 2.0, 1.0, kmax=-1)


def test_closed_form_excursion_law_at_a_pendant_vertex_is_two_point():
    # path 0-1-2, x = 1, y = 2: y hangs off x by one edge carrying all of
    # y's conductance, mu_y R = 1, so every excursion that reaches y visits
    # it once
    g = generate(FamilySpec("path", 2))
    mu_x, mu_y, R = float(g.mu[1]), float(g.mu[2]), effective_resistance(g, 1, 2)
    assert (mu_x, mu_y, R) == (2.0, 1.0, 1.0)
    law = excursion_visit_law_from_resistance(mu_x, mu_y, R, kmax=2)
    assert law.params["route"] == "two-point"
    assert law.pmf.tolist() == [0.5, 0.5, 0.0] and law.tail_mass == 0.0
    exact = excursion_visit_law(g, 1, 2, kmax=2)
    assert exact.pmf.tolist() == law.pmf.tolist() and exact.tail_mass == law.tail_mass
    law = excursion_visit_law_from_resistance(mu_x, mu_y, R, kmax=0)
    assert law.pmf.tolist() == [0.5] and law.tail_mass == 0.5


def test_returned_arrays_are_fresh_copies():
    g = generate(FamilySpec("gasket", 2))
    k = _hitting_times_to(g, 3)
    with pytest.raises(ValueError, match="read-only"):  # the memo cannot be changed in place
        k[:] = -1.0
    assert expected_hitting_time(g, 0, 3) == k[0] > 0
    P = transition_matrix(g)
    P[:] = 0.0
    assert transition_matrix(g).sum() > 0
    assert expected_return_time(g, 0) == pytest.approx(g.total_mass / g.mu[0], rel=1e-10)
