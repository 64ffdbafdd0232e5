import math
import re
import warnings

import numpy as np
import pytest

import garsia_oracle
from garsia_oracle import exp_square_psi

from resistwalk import (
    FamilySpec,
    GarsiaProfile,
    MetricContext,
    ball_volume_checks,
    build_graph,
    exp_abs_psi,
    fit_power_volume,
    gamma_functional,
    garsia,
    garsia_bound_matrix,
    garsia_integral_bound_curve,
    generate,
    power_volume,
    resistance_matrix,
    sqrt_gauge,
)
from resistwalk.errors import (
    GammaOverflow,
    InvalidProfile,
    QuadratureFailure,
    SolverFailure,
    UnknownVertex,
    VolumeBoundUnverified,
)

GASKET_VOLUME_EXPONENT = math.log(3) / math.log(5 / 3)
VICSEK_VOLUME_EXPONENT = math.log(5) / math.log(3)


def unit_edge_setup():
    g = build_graph([(0, 1, 1.0)])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    ctx = MetricContext(g, d)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=power_volume(1.0, 0.0), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    return g, ctx, profile


def test_psi_inverse_generalized():
    psi, psi_inv = exp_abs_psi(1.0)
    assert float(psi_inv(math.e)) == pytest.approx(1.0, abs=1e-12)
    assert float(psi_inv(0.5)) == 0.0  # below psi(0) = 1
    # at and above psi(0) the closed form inverts psi
    xs = np.array([1.0, 2.0, 10.0, 1e6, 1e300])
    np.testing.assert_allclose(psi(psi_inv(xs)), xs, rtol=1e-12, atol=0)


def test_exp_square_psi_closed_form():
    psi, psi_inv = exp_square_psi(0.5)
    assert float(psi(2.0)) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert float(psi_inv(math.exp(2.0))) == pytest.approx(2.0, rel=1e-12)
    assert float(psi_inv(0.3)) == 0.0
    xs = np.array([1.0, 2.0, math.exp(2.0), 1e6])
    np.testing.assert_allclose(psi(psi_inv(xs)), xs, rtol=1e-12, atol=0)


def arr(x):
    return np.asarray(x, dtype=float)


# each change to a valid profile, and the check that must refuse it
PROFILE_REJECTIONS = {
    "v-scalar-only": (dict(v=lambda r: float(r)), "v must accept an array"),
    "psi_inv-scalar-out": (dict(psi_inv=lambda x: 0.0), "psi_inv must map an array to an array"),
    "v-decreasing": (dict(v=lambda r: 1.0 / (1.0 + arr(r))), "v must be nondecreasing"),
    "v-zero": (dict(v=power_volume(0.0, 1.0)), "v must be positive"),
    "p-decreasing": (dict(p=lambda s: np.sin(arr(s))), "p must be nondecreasing"),
    "p-at-zero": (dict(p=lambda s: arr(s) + 1.0), r"p\(0\) must equal 0"),
    "p-negative": (dict(p=lambda s: np.where(arr(s) > 0, -1.0, 0.0)), "p must be nonnegative"),
    "psi-overflow": (dict(psi=lambda y: np.exp(100.0 * np.abs(arr(y)))), "psi overflows"),
    "psi-at-zero": (dict(psi=lambda y: 2.0 * np.exp(np.abs(arr(y)))), r"psi\(0\) must equal 1"),
    "psi-asymmetric": (
        dict(psi=lambda y: np.exp(np.abs(arr(y)) + 0.5 * np.maximum(arr(y), 0.0))),
        "psi must be symmetric",
    ),
    "psi-decreasing": (dict(psi=lambda y: 1.0 + np.sin(arr(y)) ** 2), "psi must be nondecreasing"),
    "psi-concave": (dict(psi=lambda y: 1.0 + np.sqrt(np.abs(arr(y)))), "psi must be convex"),
    "psi-flat": (dict(psi=lambda y: np.ones_like(arr(y))), "psi must keep increasing"),
}


def test_profile_rejections():
    psi, psi_inv = exp_abs_psi(1.0)
    good = dict(v=power_volume(1.0, 1.0), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    GarsiaProfile(**good)
    for change, message in PROFILE_REJECTIONS.values():
        with np.errstate(over="ignore"), pytest.raises(InvalidProfile, match=message):
            GarsiaProfile(**{**good, **change})
    # the closed-form inverse is required
    with pytest.raises(TypeError, match="psi_inv"):
        GarsiaProfile(v=good["v"], p=good["p"], psi=psi)
    # and the metric must be n x n
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    MetricContext(g, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    for shape in ((2, 2), (3, 2), (4, 4)):
        with pytest.raises(UnknownVertex, match=r"does not match n=3"):
            MetricContext(g, np.ones(shape) - np.eye(*shape))


def test_gamma_frozen_unit_edge():
    # f = (0, 1): two diagonal terms psi(0) = 1, two cross terms psi(1) = e
    g, ctx, profile = unit_edge_setup()
    gamma = gamma_functional(g, ctx, np.array([0.0, 1.0]), profile)
    assert gamma == pytest.approx(2.0 + 2.0 * math.e, abs=1e-12)


def test_chain_bound_frozen_unit_edge():
    # single chain term: 2 p(4 d0) psi^{-1}(Gamma / v(d0/2)^2) = 4 ln(2 + 2e)
    g, ctx, profile = unit_edge_setup()
    f = np.array([0.0, 1.0])
    bmat = garsia_bound_matrix(g, ctx, f, profile)
    assert bmat[0, 1] == bmat[1, 0] == pytest.approx(4.0 * math.log(2.0 + 2.0 * math.e), rel=1e-12)
    assert abs(f[0] - f[1]) <= bmat[0, 1]


def test_integral_bounds_frozen_unit_edge():
    # with p = sqrt and constant v the integrand is 2 ln(Gamma)/sqrt(s):
    # the d0 integral is 16 (sqrt2 - 1) ln(2+2e), the 0 integral 16 sqrt2 ln(2+2e)
    g, ctx, profile = unit_edge_setup()
    f = np.array([0.0, 1.0])
    lng = math.log(2.0 + 2.0 * math.e)
    d0_integral = garsia_integral_bound_curve(g, ctx, f, profile)[0, 1]
    assert d0_integral == pytest.approx(16.0 * (math.sqrt(2) - 1.0) * lng, rel=1e-5)
    zero_integral = garsia_integral_bound_curve(g, ctx, f, profile, lower=0.0)[0, 1]
    assert zero_integral == pytest.approx(16.0 * math.sqrt(2) * lng, rel=1e-5)
    chain = garsia_bound_matrix(g, ctx, f, profile)[0, 1]
    assert chain <= d0_integral <= zero_integral


def test_ball_volume_checks_frozen_path():
    g = generate(FamilySpec("path", 4))
    R = resistance_matrix(g).matrix
    radii, minvols = ball_volume_checks(g.mu, R)
    np.testing.assert_allclose(radii, [1.0, 2.0, 3.0, 4.0], atol=1e-9)
    np.testing.assert_allclose(minvols, [1.0, 3.0, 5.0, 7.0], atol=1e-9)


def gasket_context(level=2):
    g = generate(FamilySpec("gasket", level))
    rm = resistance_matrix(g)
    d = rm.rescaled().matrix
    ctx = MetricContext(g, d)
    c, v = fit_power_volume(g.mu, d, GASKET_VOLUME_EXPONENT)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    assert ctx.verify_volume(profile) >= 1.0
    return g, ctx, profile


def test_fitted_volume_is_tight():
    g = generate(FamilySpec("gasket", 2))
    d = resistance_matrix(g).rescaled().matrix
    c, v = fit_power_volume(g.mu, d, GASKET_VOLUME_EXPONENT)
    radii, minvols = ball_volume_checks(g.mu, d)
    ratios = minvols / np.asarray(v(radii))
    assert ratios.min() == pytest.approx(1.0, rel=1e-12)
    # inflating the constant breaks verification
    ctx = MetricContext(g, d)
    psi, psi_inv = exp_abs_psi(1.0)
    bad = GarsiaProfile(
        v=power_volume(2.0 * c, GASKET_VOLUME_EXPONENT), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv
    )
    with pytest.raises(VolumeBoundUnverified):
        ctx.verify_volume(bad)


def test_unverified_profile_rejected():
    g = generate(FamilySpec("gasket", 1))
    d = resistance_matrix(g).rescaled().matrix
    ctx = MetricContext(g, d)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=power_volume(0.1, 1.0), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    with pytest.raises(VolumeBoundUnverified, match="not verified"):
        garsia_bound_matrix(g, ctx, np.zeros(g.n), profile)
    with pytest.raises(VolumeBoundUnverified, match="not verified"):
        garsia_integral_bound_curve(g, ctx, np.zeros(g.n), profile)


def test_a_new_profile_never_inherits_a_freed_profiles_verification():
    # a profile built where a verified, since freed, profile lived (same
    # id()) must still fail the volume check that it has not passed
    g, ctx, fitted = gasket_context(1)
    psi, psi_inv = exp_abs_psi(1.0)
    for _ in range(50):
        ctx.verify_volume(GarsiaProfile(v=fitted.v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv))
        bad = GarsiaProfile(v=power_volume(1e6, 1.36), p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
        with pytest.raises(VolumeBoundUnverified):
            garsia_bound_matrix(g, ctx, np.zeros(g.n), bad)
        with pytest.raises(VolumeBoundUnverified):
            ctx.verify_volume(bad)


def test_bound_dominates_differences():
    g, ctx, profile = gasket_context()
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = rng.normal(size=g.n)
        gamma = gamma_functional(g, ctx, f, profile)
        bmat = garsia_bound_matrix(g, ctx, f, profile, gamma=gamma)
        curve = garsia_integral_bound_curve(g, ctx, f, profile, gamma=gamma)
        diff = np.abs(f[:, None] - f[None, :])
        assert np.all(diff <= bmat + 1e-9)
        assert np.all(diff <= curve + 1e-9)
        np.testing.assert_allclose(bmat, bmat.T, atol=1e-12)
        assert np.all(np.diag(bmat) == 0)


def path_context(edges=599):
    """The c04 profile on a path: fitted power volume with alpha = 1."""
    g = generate(FamilySpec("path", edges))
    d = resistance_matrix(g).rescaled().matrix
    ctx = MetricContext(g, d)
    _, v = fit_power_volume(g.mu, d, 1.0)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    assert ctx.verify_volume(profile) >= 1.0
    return g, ctx, profile


def below_a_power_of_two_context():
    """Three points with d(0, 2) the double just below 8 d0: log2(d / d0)
    rounds up to 3, so that pair's chain length needs the fix-up down to 3."""
    below8 = np.nextafter(8.0, 0.0)
    d = np.array([[0.0, 1.0, below8], [1.0, 0.0, below8 - 1.0], [below8, below8 - 1.0, 0.0]])
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    ctx = MetricContext(g, d)
    assert np.floor(np.log2(d[0, 2] / ctx.d0)) == 3.0
    _, v = fit_power_volume(g.mu, d, 1.0)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    return g, ctx, profile


def test_matrix_matches_scalar():
    # entries against the chain terms of their pair, summed one at a time:
    # every pair of gasket-2 and of three points just below a power of two,
    # and row 0 of the c04 path, whose chains run to more than eight terms
    cases = ((gasket_context(), 19, None), (below_a_power_of_two_context(), 3, None),
             (path_context(), 0, 1))
    for (g, ctx, profile), seed, rows in cases:
        f = np.random.default_rng(seed).normal(size=g.n)
        gamma = gamma_functional(g, ctx, f, profile)
        bmat = garsia_bound_matrix(g, ctx, f, profile, gamma=gamma)[:rows]
        want = [[garsia_oracle.chain_bound(ctx, profile, gamma, x, y) for y in range(g.n)]
                for x in range(len(bmat))]
        np.testing.assert_allclose(bmat, want, rtol=1e-12, atol=0)


def test_chain_lengths_match_the_doubling_loop():
    # d0 2^k, both its neighbours and log-uniform distances for several d0,
    # where a rounded log2(d / d0) would land on the wrong side of k
    rng = np.random.default_rng(11)
    for d0 in (1.0, 0.1, 1.0 / 3.0, 0.7, np.nextafter(1.0, 0.0), np.nextafter(0.5, 1.0), 3.7e5):
        powers = d0 * np.exp2(np.arange(-3.0, 62.0))
        near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
        dist = np.concatenate([[0.0], near, d0 * np.exp2(rng.uniform(-2.0, 60.0, 500))])
        want = [garsia_oracle.chain_length(d0, x) if x > 0 else 0 for x in dist.tolist()]
        got = garsia._chain_lengths(dist, d0)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_integral_dominates_chain():
    g, ctx, profile = gasket_context(level=1)
    rng = np.random.default_rng(23)
    f = rng.normal(size=g.n)
    gamma = gamma_functional(g, ctx, f, profile)
    bmat = garsia_bound_matrix(g, ctx, f, profile, gamma=gamma)
    curve = garsia_integral_bound_curve(g, ctx, f, profile, gamma=gamma)
    zero = garsia_integral_bound_curve(g, ctx, f, profile, lower=0.0, gamma=gamma)
    off = ~np.eye(g.n, dtype=bool)
    assert np.all(curve[off] >= bmat[off] - 1e-9)
    assert np.all(zero[off] >= curve[off] - 1e-9)


def test_gamma_defaults_to_the_functional_of_f():
    g, ctx, profile = gasket_context(level=1)
    f = np.random.default_rng(29).normal(size=g.n)
    gamma = gamma_functional(g, ctx, f, profile)
    assert np.array_equal(
        garsia_bound_matrix(g, ctx, f, profile),
        garsia_bound_matrix(g, ctx, f, profile, gamma=gamma),
    )
    curve = garsia_integral_bound_curve(g, ctx, f, profile)
    assert np.array_equal(curve, garsia_integral_bound_curve(g, ctx, f, profile, gamma=gamma))
    assert np.all(np.diag(curve) == 0.0)


def test_gamma_overflow_detected():
    g, ctx, profile = unit_edge_setup()
    with pytest.raises(GammaOverflow) as ei:
        gamma_functional(g, ctx, np.array([0.0, 1e6]), profile)
    assert ei.value.pair is not None


def test_metric_context_rejects_non_metric():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(SolverFailure):
        MetricContext(g, d)


def random_weighted_graph(n=12, seed=31):
    """A connected graph: a random spanning path plus random chords, with
    conductances drawn from [0.5, 2]."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = [(int(perm[i]), int(perm[i + 1]), float(rng.uniform(0.5, 2.0))) for i in range(n - 1)]
    for _ in range(n):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.5, 2.0))))
    return build_graph(edges)


def metric_case(name):
    """(graph, rescaled resistance metric, volume exponent) for a case name."""
    if name == "random":
        g, alpha = random_weighted_graph(), 1.0
    else:
        family, level = name.split("-")
        g = generate(FamilySpec(family, int(level)))
        alphas = {"gasket": GASKET_VOLUME_EXPONENT, "vicsek": VICSEK_VOLUME_EXPONENT}
        alpha = alphas.get(family, 1.0)
    return g, resistance_matrix(g).rescaled().matrix, alpha


def oracle_case(name, psi_pair):
    """Graph, verified context, profile and function for an oracle case."""
    g, d, alpha = metric_case(name)
    ctx = MetricContext(g, d)
    _, v = fit_power_volume(g.mu, d, alpha)
    psi, psi_inv = psi_pair
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    f = 0.5 * np.random.default_rng(41).normal(size=g.n)
    return g, ctx, profile, f


PSIS = {"exp_abs": exp_abs_psi(1.0), "exp_square": exp_square_psi(0.5)}
ORACLE_CASES = [
    (name, psi, lower)
    for name in ("gasket-2", "gasket-3", "vicsek-1", "vicsek-2", "random")
    for psi in PSIS
    for lower in (0.0, None)
]


# "array": the sweep evaluates every profile piece on whole arrays of nodes
@pytest.mark.parametrize(
    "name,psi,lower", ORACLE_CASES, ids=[f"{n}-{p}-{l}-array" for n, p, l in ORACLE_CASES]
)
def test_integral_curve_matches_recursive_oracle(name, psi, lower):
    g, ctx, profile, f = oracle_case(name, PSIS[psi])
    gamma = gamma_functional(g, ctx, f, profile)
    curve = garsia_integral_bound_curve(g, ctx, f, profile, lower=lower, gamma=gamma)
    oracle = garsia_oracle.integral_bound_curve(ctx, profile, gamma, lower=lower)
    off = ~np.eye(g.n, dtype=bool)
    # above d0 the sweep accepts the same Simpson leaves and only sums them in
    # another order; the head runs its panels at a tolerance of its own
    rtol = 1e-6 if lower == 0.0 else 1e-12
    np.testing.assert_allclose(curve[off], oracle[off], rtol=rtol, atol=0.0)
    assert np.all(np.diag(curve) == 0)


def test_curve_matches_single_pair_for_every_lower():
    g, ctx, profile = gasket_context()
    f = np.random.default_rng(29).normal(size=g.n)
    gamma = gamma_functional(g, ctx, f, profile)
    off = ~np.eye(g.n, dtype=bool)
    uppers = np.unique(2.0 * ctx.d[off])
    between = 0.5 * (uppers[len(uppers) // 2] + uppers[len(uppers) // 2 + 1])
    pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
    for lower in (None, 0.0, between):
        curve = garsia_integral_bound_curve(g, ctx, f, profile, lower=lower, gamma=gamma)
        by_upper = {u: garsia_oracle.integral_bound(ctx, profile, gamma, u, lower) for u in uppers}
        single = [by_upper[2.0 * ctx.d[x, y]] for x, y in pairs]
        paired = [curve[x, y] for x, y in pairs]
        np.testing.assert_allclose(paired, single, rtol=1e-5, atol=1e-12)
    below = 2.0 * ctx.d <= between
    assert np.all(curve[below] == 0.0) and np.any(below & off)


def test_negative_lower_rejected_up_front():
    g, ctx, profile = gasket_context(level=1)
    f = np.random.default_rng(3).normal(size=g.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="lower limit must be >= 0"):
            garsia_integral_bound_curve(g, ctx, f, profile, lower=-0.1)


def test_non_decaying_head_raises():
    # with the step gauge p(s) = (s > 0) the head panels grow like log(1/s)
    g = generate(FamilySpec("gasket", 1))
    d = resistance_matrix(g).rescaled().matrix
    ctx = MetricContext(g, d)
    _, v = fit_power_volume(g.mu, d, GASKET_VOLUME_EXPONENT)
    psi, psi_inv = exp_abs_psi(1.0)
    step = lambda s: (np.asarray(s, dtype=float) > 0).astype(float)
    profile = GarsiaProfile(v=v, p=step, psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    f = np.random.default_rng(5).normal(size=g.n)
    with pytest.raises(QuadratureFailure, match="did not decay"):
        garsia_integral_bound_curve(g, ctx, f, profile, lower=0.0)
    gamma = gamma_functional(g, ctx, f, profile)
    with pytest.raises(QuadratureFailure, match="did not decay"):
        garsia_oracle.integral_bound_curve(ctx, profile, gamma, lower=0.0)


@pytest.mark.parametrize("where", ["body", "head"])
def test_a_panel_where_v_underflows_is_named(where):
    # below s = bad, v(s/2) = 1e-200 squares to 0 and Gamma / v^2 is infinite
    g = generate(FamilySpec("gasket", 1))
    d = resistance_matrix(g).rescaled().matrix
    ctx = MetricContext(g, d)
    _, fitted = fit_power_volume(g.mu, d, GASKET_VOLUME_EXPONENT)
    # inside the first body panel [d0, 2 d0], or the head panel (d0/4, d0/2]
    bad = 1.5 * ctx.d0 if where == "body" else ctx.d0 / 3
    v = lambda r: np.where(np.asarray(r, dtype=float) < bad / 2, 1e-200, fitted(r))
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    f = np.random.default_rng(11).normal(size=g.n)
    lower = None if where == "body" else 0.0
    with pytest.raises(QuadratureFailure, match="failed to converge") as ei:
        garsia_integral_bound_curve(g, ctx, f, profile, lower=lower)
    a, b = map(float, re.search(r"\[(.+), (.+)\]$", str(ei.value)).groups())
    assert a < bad <= b
    assert (a >= ctx.d0) == (where == "body")


def test_head_unaffected_by_unused_panels_where_v_underflows():
    # v(r) = c r^8 underflows to 0 long before the 200th head panel; the
    # head stops after a few dozen panels, so those panels must not matter
    g = generate(FamilySpec("gasket", 1))
    d = resistance_matrix(g).rescaled().matrix
    ctx = MetricContext(g, d)
    _, v = fit_power_volume(g.mu, d, 8.0)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    ctx.verify_volume(profile)
    assert float(v(ctx.d0 * 2.0**-201)) == 0.0
    f = np.random.default_rng(7).normal(size=g.n)
    gamma = gamma_functional(g, ctx, f, profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = garsia_integral_bound_curve(g, ctx, f, profile, lower=0.0, gamma=gamma)
    oracle = garsia_oracle.integral_bound_curve(ctx, profile, gamma, lower=0.0)
    off = ~np.eye(g.n, dtype=bool)
    np.testing.assert_allclose(curve[off], oracle[off], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize(
    "name,cluster_tol",
    [
        ("gasket-3", 1e-9),
        ("gasket-4", 1e-9),
        ("path-6", 1e-9),
        ("random", 1e-9),
        ("gasket-3", 2e-2),
    ],
)
def test_ball_volume_checks_match_per_radius_oracle(name, cluster_tol, monkeypatch):
    g, d, _ = metric_case(name)
    monkeypatch.setattr(garsia, "CLUSTER_TOL", cluster_tol)
    radii, minvols = ball_volume_checks(g.mu, d)
    ref_radii, ref_minvols = garsia_oracle.ball_volume_checks(g.mu, d, cluster_tol)
    assert np.array_equal(radii, ref_radii)
    assert np.array_equal(minvols, ref_minvols)
    if cluster_tol > 1e-9:  # radii within cluster_tol * diam merged
        assert len(radii) < len(garsia_oracle.ball_volume_checks(g.mu, d)[0])
