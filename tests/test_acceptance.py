"""Acceptance gate: one test per shipped guarantee.

Each test is self-contained, pins its tolerances, and asserts its wall-clock
budget; `pytest -v` therefore yields one pass/fail line per criterion.
Monte Carlo configurations (T, trial counts, level windows, seeds) were
calibrated once against multiple seeds and then frozen; the margins quoted
in the comments are from that calibration.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from resistwalk import (
    FamilySpec,
    GarsiaProfile,
    MetricContext,
    RngStream,
    carpet_rho_estimate,
    check_uvd,
    cover_time,
    cover_time_scaling,
    effective_resistance,
    estimate_exponents,
    excursion_visit_law,
    excursion_visit_law_from_resistance,
    exp_abs_psi,
    expected_hitting_time,
    expected_return_time,
    fit_power_volume,
    gamma_functional,
    garsia_bound_matrix,
    garsia_integral_bound_curve,
    generate,
    hit_before_return_prob,
    modulus_equicontinuity_gasket,
    parse_config,
    resistance_matrix,
    run_command,
    run_walk,
    sqrt_gauge,
    tail_curve_thm_a,
    tail_curve_thm_b,
)

GASKET_RESISTANCE_EXPONENT = math.log(3) / math.log(5 / 3)


def all_pairs(n):
    return itertools.combinations(range(n), 2)


def test_c01_hit_probability_identity(graph_set):
    # P_x(tau_y < tau_x^+) = 1 / (mu_x R(x, y)) to 1e-10, all ordered pairs
    t0 = time.monotonic()
    worst = 0.0
    for g in graph_set.values():
        R = resistance_matrix(g).matrix
        for x, y in all_pairs(g.n):
            for a, b in ((x, y), (y, x)):
                p = hit_before_return_prob(g, a, b)
                worst = max(worst, abs(p - 1.0 / (g.mu[a] * R[a, b])))
    assert worst <= 1e-10
    assert time.monotonic() - t0 < 60.0
    print(f"criterion 01: worst |P - 1/(mu R)| = {worst:.2e}")


def test_c02_return_and_commute_identities(graph_set):
    # E_x tau_x^+ = m / mu_x to 1e-10 and commute time = m R to 1e-8
    t0 = time.monotonic()
    worst_ret = worst_com = 0.0
    for g in graph_set.values():
        R = resistance_matrix(g).matrix
        m = g.total_mass
        for x in range(g.n):
            expect = m / g.mu[x]
            worst_ret = max(
                worst_ret, abs(expected_return_time(g, x) - expect) / expect
            )
        for x, y in all_pairs(g.n):
            com = expected_hitting_time(g, x, y) + expected_hitting_time(g, y, x)
            worst_com = max(worst_com, abs(com - m * R[x, y]) / (m * R[x, y]))
    assert worst_ret <= 1e-10
    assert worst_com <= 1e-8
    assert time.monotonic() - t0 < 60.0
    print(f"criterion 02: return err {worst_ret:.2e}, commute err {worst_com:.2e}")


def test_c03_excursion_law_and_second_moment(graph_set):
    # first-step-analysis pmf = closed geometric form to 1e-10 on 50 random
    # pairs including one degenerate mu_y R = 1 pair; E (N/mu_y)^2 <= 2R/mu_x
    rng = np.random.default_rng(303)
    graphs = list(graph_set.values())
    pairs = []
    path10 = graph_set["path-10"]
    assert path10.mu[0] * effective_resistance(path10, 1, 0) == pytest.approx(1.0)
    pairs.append((path10, 1, 0))  # degenerate: a = 1/(mu_y R) = 1
    while len(pairs) < 50:
        g = graphs[rng.integers(len(graphs))]
        x, y = rng.integers(g.n, size=2)
        if x != y:
            pairs.append((g, int(x), int(y)))
    worst = 0.0
    for g, x, y in pairs:
        R = effective_resistance(g, x, y)
        fsa = excursion_visit_law(g, x, y, kmax=60)
        closed = excursion_visit_law_from_resistance(
            float(g.mu[x]), float(g.mu[y]), R, kmax=60
        )
        worst = max(worst, float(np.max(np.abs(fsa.pmf - closed.pmf))))
        p = 1.0 / (g.mu[x] * R)
        a = 1.0 / (g.mu[y] * R)
        second_scaled = p * (2.0 - a) / a**2 / g.mu[y] ** 2
        assert second_scaled <= 2.0 * R / g.mu[x] + 1e-12
    assert worst <= 1e-10
    print(f"criterion 03: worst pmf err {worst:.2e} over {len(pairs)} pairs")


def test_c04_chaining_bound_dominates():
    # |f(x)-f(y)| <= chain bound <= 0-limit integral bound, 1e-9 slack, for
    # 1,000 random functions and 100 local-time snapshots on gasket(3)
    t0 = time.monotonic()
    g = generate(FamilySpec("gasket", 3))
    rm = resistance_matrix(g)
    d = rm.rescaled().matrix
    ctx = MetricContext(g, d)
    _, v = fit_power_volume(g.mu, d, GASKET_RESISTANCE_EXPONENT)
    psi, psi_inv = exp_abs_psi(1.0)
    profile = GarsiaProfile(v=v, p=sqrt_gauge(), psi=psi, psi_inv=psi_inv)
    assert ctx.verify_volume(profile) >= 1.0
    off = ~np.eye(g.n, dtype=bool)
    steps = int(round(g.total_mass * rm.r_diam))  # one natural time unit

    def fields():
        gen = np.random.default_rng(404)
        for _ in range(1000):
            yield gen.standard_normal(g.n)
        for k in range(100):
            w = run_walk(g, int(g.meta["corners"][0]), steps, RngStream(404, k))
            yield w.local_times() / rm.r_diam

    worst_chain = worst_int = np.inf
    for f in fields():
        gam = gamma_functional(g, ctx, f, profile)
        chain = garsia_bound_matrix(g, ctx, f, profile, gamma=gam)
        integ = garsia_integral_bound_curve(g, ctx, f, profile, lower=0.0, gamma=gam)
        df = np.abs(f[:, None] - f[None, :])
        worst_chain = min(worst_chain, float((chain - df)[off].min()))
        worst_int = min(worst_int, float((integ - chain)[off].min()))
    assert worst_chain >= -1e-9
    assert worst_int >= -1e-9
    assert time.monotonic() - t0 < 300.0
    print(
        f"criterion 04: min(chain - |df|) = {worst_chain:.3e}, "
        f"min(integral - chain) = {worst_int:.3e}"
    )


def test_c05_occupation_identity_and_cover_convention(graph_set):
    # exact integer-count equality on every trajectory; tau~ = tau + 1
    for g in graph_set.values():
        for k in range(5):
            w = run_walk(g, 0, 400, RngStream(505, k))
            counted = np.bincount(w.trajectory[: w.t], minlength=g.n)
            assert np.array_equal(counted, w.counts)
            f = np.arange(g.n)  # integer test function, identity is exact
            assert int(f @ w.counts) == int(f[w.trajectory[: w.t]].sum())
            assert int((w.local_times() * g.mu) @ np.ones(g.n)) == w.t
    g = graph_set["gasket-3"]
    for k in range(50):
        s = cover_time(g, int(g.meta["corners"][0]), RngStream(506, k), cap=10**7)
        assert s.tau_cov_tilde == s.tau_cov + 1
    print("criterion 05: occupation counts exact on 30 trajectories, "
          "tau~ = tau + 1 on 50 cover samples")


def test_c06_uniform_volume_doubling():
    # path: v(r) = r with c1 >= 1 exactly; vicsek: r^{ln5/ln3};
    # gasket: r^{d_f/(d_w-d_f)} with level 1-4 constants within factor 2
    rep = check_uvd("path", [6, 8, 10], 1.0)
    assert rep.passed and min(rep.c1_values) >= 1.0
    rep = check_uvd("vicsek", [1, 2], math.log(5) / math.log(3))
    assert rep.passed
    rep = check_uvd("gasket", [1, 2, 3, 4], GASKET_RESISTANCE_EXPONENT)
    assert rep.passed
    assert rep.c1_span <= 2.0 and rep.c2_span <= 2.0
    print(
        f"criterion 06: gasket c1 span {rep.c1_span:.4f}, c2 span {rep.c2_span:.4f}"
    )


def test_c07_exponents_and_resistance_ladder():
    est = estimate_exponents("gasket", [2, 3])
    a_true = math.log(3) / math.log(2)
    gap_true = math.log(5 / 3) / math.log(2)
    assert abs(est.alpha_hat - a_true) <= 0.1
    assert abs((est.beta_hat - est.alpha_hat) - gap_true) <= 0.1
    ladder = []
    for level in range(5):
        g = generate(FamilySpec("gasket", level))
        c = g.meta["corners"]
        ladder.append(effective_resistance(g, int(c[0]), int(c[1])))
    ratios = [ladder[i + 1] / ladder[i] for i in range(4)]
    assert all(abs(r - 5.0 / 3.0) <= 1e-9 for r in ratios)
    print(
        f"criterion 07: alpha {est.alpha_hat:.6f} (true {a_true:.6f}), "
        f"beta-alpha {est.beta_hat - est.alpha_hat:.6f} (true {gap_true:.6f}), "
        f"ladder ratios 5/3 to {max(abs(r - 5/3) for r in ratios):.1e}"
    )


def test_c08_truncated_gaussian_tail_bound():
    # estimate - 95% CI <= 2 e^{1/2 - lambda^2 / 8L} in every cell:
    # gasket levels 1-3, L in {1,2}, lambda in {2,3,4}, 2,000 trials
    t0 = time.monotonic()
    min_margin = np.inf
    for L in (1.0, 2.0):
        curves = tail_curve_thm_b(
            "gasket", [1, 2, 3], L=L, lambda_grid=(2.0, 3.0, 4.0),
            n_trials=2000, seed=101,
        )
        for c in curves:
            margin = np.asarray(c.bound) - (c.prob_est - c.ci_halfwidth)
            min_margin = min(min_margin, float(margin.min()))
    assert min_margin >= 0.0
    assert time.monotonic() - t0 < 1200.0
    print(f"criterion 08: min (bound - (est - ci)) over 18 cells = {min_margin:.4f}")


def test_c09_equicontinuity_proxies():
    # tail slopes strictly negative at gasket levels 1-3; tails at a fixed
    # lambda within factor 3 across levels; p99 of the sup-modulus statistic
    # within 50% relative spread (range/mean) across levels 1-4
    t0 = time.monotonic()
    curves = tail_curve_thm_a(
        "gasket", [1, 2, 3], T=1.0, lambda_grid=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        n_trials=2000, seed=102,
    )
    slopes = [c.fitted_slope for c in curves]
    assert all(s is not None and s < 0.0 for s in slopes)
    fixed = np.array([c.prob_est[0] for c in curves])  # lambda = 1.0
    assert fixed.min() > 0.0
    assert fixed.max() / fixed.min() <= 3.0
    eq = modulus_equicontinuity_gasket(
        [1, 2, 3, 4], T=8.0, lambda_grid=(0.0, 2.0, 4.0, 6.0),
        n_trials=1500, seed=0,
    )
    p99 = np.array([c.extras["p99"] for c in eq])
    spread = (p99.max() - p99.min()) / p99.mean()
    assert spread <= 0.5
    assert time.monotonic() - t0 < 1800.0
    print(
        f"criterion 09: slopes {[round(s, 3) for s in slopes]}, "
        f"fixed-lambda ratio {fixed.max() / fixed.min():.3f}, "
        f"p99 relative spread {spread:.3f}"
    )


def test_c10_cover_time_scaling():
    # mean of 5^{-i} tau_cov changes < 10% between levels 3 and 4 at 10^3
    # trials; successive-level KS statistics decreasing
    t0 = time.monotonic()
    rep = cover_time_scaling([2, 3, 4], n_trials=1000, seed=0)
    means = rep.functionals["rescaled_cover_time"]["means"]
    ks = rep.functionals["rescaled_cover_time"]["ks_successive"]
    change = abs(means[2] - means[1]) / means[1]
    assert change < 0.10
    assert all(ks[i] > ks[i + 1] for i in range(len(ks) - 1))
    assert time.monotonic() - t0 < 1200.0
    print(
        f"criterion 10: mean change 3->4 = {change:.3f}, KS {np.round(ks, 3).tolist()}"
    )


def test_c11_carpet_resistance_growth():
    rep = carpet_rho_estimate([0, 1, 2], wired_check_level=1)
    assert rep.rho_hat > 1.0
    assert rep.wired_max_excess <= 1e-9
    # explicit pairwise wired <= unwired on the level-1 carpet
    gw = generate(FamilySpec("wired_carpet", 1))
    gu = generate(FamilySpec("carpet", 1))
    Rw = resistance_matrix(gw).matrix
    Ru = resistance_matrix(gu).matrix
    vmap = gw.meta["vertex_map"]
    excess = 0.0
    for x, y in all_pairs(gu.n):
        u, v = vmap[x], vmap[y]
        if u != v:
            excess = max(excess, Rw[u, v] - Ru[x, y])
    assert excess <= 1e-9
    print(f"criterion 11: rho_hat {rep.rho_hat:.4f}, wired excess {excess:.2e}")


def test_c12_reproducible_checksums(tmp_path):
    text = json.dumps({
        "schema": "resistwalk/1",
        "command": "exp",
        "kind": "thm-a",
        "family": "gasket",
        "levels": [1, 2],
        "lambda_grid": [0.0, 1.0, 2.0, 3.0],
        "n_trials": 200,
        "seed": 12,
    })
    m1 = run_command(parse_config(text), out_dir=tmp_path / "a")
    m2 = run_command(parse_config(text), out_dir=tmp_path / "b")
    assert m1.outputs == m2.outputs and m1.outputs
    walk = json.dumps({
        "schema": "resistwalk/1",
        "command": "walk",
        "family": "gasket",
        "level": 2,
        "n_trials": 200,
        "seed": 12,
    })
    w1 = run_command(parse_config(walk), out_dir=tmp_path / "c")
    w2 = run_command(parse_config(walk), out_dir=tmp_path / "d")
    assert w1.outputs == w2.outputs and w1.outputs
    print(f"criterion 12: {len(m1.outputs) + len(w1.outputs)} outputs byte-identical on rerun")
