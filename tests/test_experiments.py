import math

import numpy as np
import pytest

from resistwalk import (
    ScalingReport,
    TailCurve,
    carpet_rho_estimate,
    check_uvd,
    cover_time_scaling,
    estimate_exponents,
    local_time_scaling,
    modulus_equicontinuity_gasket,
    sup_local_time_tail,
    tail_curve_thm_a,
    tail_curve_thm_b,
)
from resistwalk import experiments
from resistwalk.graphs import _jsonable
from resistwalk.errors import (
    ExcessiveCensoring,
    InsufficientData,
    InsufficientLevels,
    InvariantViolation,
    RangeError,
)

GRID = (0.0, 1.0, 2.0, 3.0)


def test_uvd_path_linear_gauge():
    rep = check_uvd("path", [8, 16], 1.0)
    assert rep.passed
    assert min(rep.c1_values) >= 1.0
    assert rep.c1_span <= 1.0 + 1e-9
    assert all(c2 == pytest.approx(2.0, rel=1e-9) for c2 in rep.c2_values)


def test_uvd_vicsek():
    rep = check_uvd("vicsek", [1, 2], math.log(5) / math.log(3))
    assert rep.passed
    assert all(c1 == pytest.approx(1.0, rel=1e-9) for c1 in rep.c1_values)


def test_uvd_gasket_resistance_gauge():
    a = math.log(3) / math.log(5 / 3)
    rep = check_uvd("gasket", [1, 2, 3], a)
    assert rep.passed
    # c2 = m / v(r_diam) is level independent for this gauge
    assert rep.c2_span == pytest.approx(1.0, rel=1e-9)
    assert rep.c1_span < 1.05


def test_uvd_needs_levels():
    with pytest.raises(InsufficientLevels):
        check_uvd("path", [], 1.0)


def test_exponents_frozen_path():
    est = estimate_exponents("path", [6, 10])
    assert est.alpha_hat == pytest.approx(1.0, abs=1e-6)
    assert est.beta_hat == pytest.approx(2.0, abs=1e-6)
    assert est.alpha_resid < 1e-6


def test_exponents_frozen_gasket():
    est = estimate_exponents("gasket", [2, 3])
    assert est.alpha_hat == pytest.approx(math.log(3) / math.log(2), abs=1e-6)
    assert est.beta_hat - est.alpha_hat == pytest.approx(
        math.log(5 / 3) / math.log(2), abs=0.1
    )


def test_exponents_frozen_vicsek():
    est = estimate_exponents("vicsek", [2, 3])
    assert est.alpha_hat == pytest.approx(math.log(5) / math.log(3), abs=1e-6)
    assert est.beta_hat == pytest.approx(est.alpha_hat + 1.0, abs=0.1)


def test_exponents_underdetermined():
    # one point at level 1 plus two at level 2 cannot pin a shared exponent
    with pytest.raises(InsufficientData):
        estimate_exponents("vicsek", [1, 2])
    with pytest.raises(InsufficientData):
        estimate_exponents("gasket", [3])


def test_exponents_refuse_volumes_the_background_correction_leaves_unusable(monkeypatch):
    # volumes that fall with the radius: the fitted background lies above
    # them, so fewer than two corrected volumes stay positive on each level
    volumes = np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.0, 1.0])
    monkeypatch.setattr(experiments, "_corner_volume_points", lambda g, rho: volumes)
    with pytest.raises(InsufficientData, match="background correction left no usable"):
        estimate_exponents("gasket", [2, 3])


def test_tail_curve_validation():
    with pytest.raises(RangeError):
        TailCurve(
            kind="x",
            graph_id="path-2",
            lambda_grid=np.array([0.0, 0.0]),
            prob_est=np.array([1.0, 1.0]),
            ci_halfwidth=np.zeros(2),
            n_trials=100,
            starts=[0],
            params={},
        )


def tail_curve(prob_est, ci_halfwidth):
    return TailCurve(kind="x", graph_id="path-2", lambda_grid=np.arange(float(len(prob_est))),
                     prob_est=np.array(prob_est), ci_halfwidth=np.array(ci_halfwidth),
                     n_trials=100)


def test_tail_probabilities_must_lie_in_the_unit_interval():
    assert tail_curve([1.0, 0.5, 0.0], [0.0, 0.1, 0.0]).prob_est.tolist() == [1.0, 0.5, 0.0]
    for bad in ([1.0, -0.01], [1.01, 1.0], [2.0, -1.0]):
        with pytest.raises(InvariantViolation, match=r"must lie in \[0, 1\]"):
            tail_curve(bad, [0.0, 0.0])


def test_a_nan_tail_probability_is_refused():
    # NaN compares False both ways, so the check asks for 0 <= p <= 1
    assert tail_curve([1.0, 0.0], [0.0, 0.0]).prob_est.tolist() == [1.0, 0.0]
    for bad in ([float("nan"), 0.5], [1.0, float("nan")]):
        with pytest.raises(InvariantViolation, match=r"must lie in \[0, 1\]"):
            tail_curve(bad, [0.0, 0.0])


def test_a_tail_curve_may_rise_only_within_its_ci_slack():
    # a rise up to the two half-widths (plus 1e-12) is sampling noise
    assert tail_curve([0.5, 0.59, 0.2], [0.04, 0.05, 0.0]).prob_est[1] == 0.59
    assert tail_curve([0.5, 0.5 + 1e-12, 0.2], [0.0, 0.0, 0.0]).prob_est[1] > 0.5
    for prob, hw in (([0.5, 0.6], [0.04, 0.05]), ([0.2, 0.3, 0.1], [0.0, 0.0, 0.0]),
                     ([0.9, 0.5, 0.5 + 1e-11], [0.0, 0.0, 0.0])):
        with pytest.raises(InvariantViolation, match="increases beyond CI slack"):
            tail_curve(prob, hw)


def test_scaling_report_refuses_a_ks_statistic_outside_the_unit_interval():
    report = lambda ks: ScalingReport(kind="x", levels=[1, 2, 3], n_trials=10,
                                      functionals={"a": {"ks_successive": [0.5, 0.5]},
                                                   "b": {"ks_successive": ks}, "c": {}})
    assert report([0.0, 1.0]).functionals["b"]["ks_successive"] == [0.0, 1.0]
    for bad in ([0.2, 1.5], [-0.1, 0.2], [0.3, float("nan")]):
        with pytest.raises(InvariantViolation, match=r"KS statistic outside \[0, 1\]"):
            report(bad)


def test_thm_a_curve_shape():
    curves = tail_curve_thm_a("gasket", [1], T=1.0, lambda_grid=GRID, n_trials=150, seed=3)
    (c,) = curves
    assert c.graph_id == "gasket-1"
    assert c.prob_est[0] == 1.0  # lambda = 0 is certain
    assert np.all(np.diff(c.prob_est) <= 1e-12)
    assert c.n_trials == 150
    assert c.fitted_slope is None or c.fitted_slope < 0


def test_thm_a_reproducible():
    a = tail_curve_thm_a("gasket", [1], T=1.0, lambda_grid=GRID, n_trials=120, seed=5)
    b = tail_curve_thm_a("gasket", [1], T=1.0, lambda_grid=GRID, n_trials=120, seed=5)
    np.testing.assert_array_equal(a[0].prob_est, b[0].prob_est)
    c = tail_curve_thm_a("gasket", [1], T=1.0, lambda_grid=GRID, n_trials=120, seed=6)
    assert not np.array_equal(a[0].prob_est, c[0].prob_est)


def test_trials_floor():
    with pytest.raises(RangeError):
        tail_curve_thm_a("gasket", [1], T=1.0, lambda_grid=GRID, n_trials=50, seed=1)


def test_a_horizon_must_be_positive():
    for T in (0.0, -1.0):
        for study in (
            lambda: tail_curve_thm_a("gasket", [1], T, GRID, n_trials=100, seed=1),
            lambda: sup_local_time_tail("gasket", [1], T, GRID, n_trials=100, seed=1),
            lambda: modulus_equicontinuity_gasket([1], T, GRID, n_trials=100, seed=1),
        ):
            with pytest.raises(RangeError, match="T must be positive"):
                study()


def test_a_truncation_level_must_be_at_least_one():
    for L in (0.5, 0.0, -2.0):
        with pytest.raises(RangeError, match="truncation level must be >= 1"):
            tail_curve_thm_b("gasket", [1], L, GRID, n_trials=100, seed=1)


def test_scaling_studies_need_two_levels():
    for study in (
        lambda: local_time_scaling([2], n_trials=100, seed=1),
        lambda: cover_time_scaling([2], n_trials=100, seed=1),
    ):
        with pytest.raises(InsufficientLevels, match="at least two levels to compare"):
            study()


def test_thm_b_bound_respected():
    curves = tail_curve_thm_b(
        "gasket", [1], L=1.0, lambda_grid=(0.0, 2.0, 3.0, 4.0), n_trials=150, seed=7
    )
    (c,) = curves
    expected = [2.0 * math.exp(0.5 - lam**2 / 8.0) for lam in c.lambda_grid]
    np.testing.assert_allclose(c.bound, expected, rtol=1e-12)
    assert np.all(c.prob_est - c.ci_halfwidth <= np.asarray(c.bound) + 1e-12)
    assert 0.0 <= c.extras["unsaturated_fraction"] <= 1.0


def test_sup_local_time_pigeonhole():
    # sum of local times weighted by mu is t, so the max rescaled local time
    # at t = T m r is at least T: the tail probability at lambda <= T is 1
    curves = sup_local_time_tail(
        "gasket", [1, 2], T=1.0, lambda_grid=(0.0, 0.5, 1.0, 2.0), n_trials=120, seed=11
    )
    for c in curves:
        assert c.prob_est[0] == 1.0
        assert c.prob_est[1] == 1.0
        assert c.prob_est[2] == 1.0


def test_equicontinuity_statistic():
    curves = modulus_equicontinuity_gasket(
        [1, 2], T=0.5, lambda_grid=GRID, n_trials=100, seed=13
    )
    assert [c.graph_id for c in curves] == ["gasket-1", "gasket-2"]
    for c in curves:
        assert c.extras["p99"] > 0
        assert np.all(np.diff(c.prob_est) <= 1e-12)


def test_local_time_scaling_report():
    rep = local_time_scaling([1, 2], t_values=(1.0,), n_trials=100, seed=17)
    assert rep.levels == [1, 2]
    for name in ("corner_value@t=1", "max_value@t=1", "occupation_xcoord@t=1"):
        entry = rep.functionals[name]
        assert len(entry["means"]) == 2
        assert all(np.isfinite(entry["means"]))
        assert all(0.0 <= k <= 1.0 for k in entry["ks_successive"])


def test_local_time_scaling_refuses_a_trial_that_breaks_the_occupation_identity(monkeypatch):
    walk_group = experiments.walk_group

    def one_visit_too_many(*args, **kwargs):
        w = walk_group(*args, **kwargs)
        w.counts[-1, 0, 0] += 1
        return w

    monkeypatch.setattr(experiments, "walk_group", one_visit_too_many)
    with pytest.raises(InvariantViolation, match="occupation identity failed"):
        local_time_scaling([1, 2], t_values=(1.0,), n_trials=100, seed=17)


def test_cover_time_scaling_report():
    rep = cover_time_scaling([1, 2], n_trials=120, seed=19)
    assert rep.extras["censored_per_level"] == [0, 0]
    means = rep.functionals["rescaled_cover_time"]["means"]
    assert len(means) == 2 and all(m > 0 for m in means)


def test_cover_time_excess_censoring():
    with pytest.raises(ExcessiveCensoring):
        cover_time_scaling([1, 2], n_trials=120, seed=23, cap_factor=0.05)


# Each study at widths that cut inside a start (7, 150, and the default on
# the 1500 trials of gasket-2) and at one trial per group.
PLAN_STUDIES = {
    "thm-a": lambda: tail_curve_thm_a("gasket", [1], 0.5, GRID, 100, 61),
    "thm-b-unsaturated": lambda: tail_curve_thm_b(
        "gasket", [1], 1.0, GRID, 100, 62, cap_factor=2.0
    ),
    "sup-lt": lambda: sup_local_time_tail("gasket", [1, 2], 0.5, GRID, 100, 63),
    "cover-censored": lambda: cover_time_scaling([1, 2], n_trials=100, seed=64, cap_factor=0.3),
    "local-time": lambda: local_time_scaling([1, 2], t_values=(0.5, 1.0), n_trials=100, seed=65),
}


@pytest.mark.parametrize("study", sorted(PLAN_STUDIES))
def test_trial_plan_values_do_not_depend_on_the_group_width(monkeypatch, study):
    plan = experiments._trial_plan
    seen = []

    def recording(*args):
        for ctx, samples, flagged in plan(*args):
            seen.append((samples, flagged))
            yield ctx, samples, flagged

    monkeypatch.setattr(experiments, "_trial_plan", recording)
    monkeypatch.setattr(experiments, "MAX_CENSORED_FRACTION", 1.0)  # cover-censored keeps all
    default = experiments.GROUP_WIDTH
    runs = {}
    for width in (default, 150, 7, 1):
        monkeypatch.setattr(experiments, "GROUP_WIDTH", width)
        seen.clear()
        PLAN_STUDIES[study]()
        runs[width] = list(seen)
    reference = runs.pop(default)
    flags = np.concatenate([f.ravel() for _, f in reference])
    if study in ("thm-b-unsaturated", "cover-censored"):
        assert flags.any() and not flags.all()
    for width, levels in runs.items():
        assert len(levels) == len(reference)
        for (samples, flagged), (ref_samples, ref_flagged) in zip(levels, reference):
            assert np.array_equal(samples, ref_samples), width
            assert np.array_equal(flagged, ref_flagged), width


def test_carpet_growth_report():
    rep = carpet_rho_estimate([0, 1, 2], wired_check_level=1)
    assert rep.set_resistances[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.rho_hat > 1.0
    assert all(r > 1.0 for r in rep.ratios)
    assert rep.wired_max_excess <= 1e-9
    with pytest.raises(InsufficientLevels):
        carpet_rho_estimate([1])


@pytest.mark.parametrize("resistances", [[2.0, 2.0, 2.0], [3.0, 2.0, 1.0]], ids=["flat", "falling"])
def test_carpet_growth_refuses_a_rate_not_above_one(resistances, monkeypatch):
    values = iter(resistances)
    monkeypatch.setattr(experiments, "set_resistance", lambda g, A, B: next(values))
    with pytest.raises(InvariantViolation, match="is not > 1"):
        carpet_rho_estimate([0, 1, 2])


def test_reports_are_jsonable():
    import json

    rep = check_uvd("path", [8], 1.0)
    json.dumps(_jsonable(rep))
    est = estimate_exponents("path", [6, 10])
    json.dumps(_jsonable(est))
    curves = tail_curve_thm_a("gasket", [1], T=0.5, lambda_grid=GRID, n_trials=100, seed=29)
    json.dumps(curves[0].to_jsonable())
