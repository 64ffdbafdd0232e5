import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistwalk import (
    FamilySpec,
    RngStream,
    build_graph,
    cover_time,
    generate,
    inverse_local_time,
    max_scaled_difference_statistic,
    occupation_integral,
    resistance_matrix,
    run_walk,
    truncated_modulus_trial,
)
from resistwalk.errors import (
    CapExceeded,
    InvariantViolation,
    NotReached,
    RangeError,
    TrajectoryNotRetained,
)
from resistwalk.walk_sim import _validate_running_max, sqrt_gauge_reciprocal


def test_rng_stream_reproducible():
    a = RngStream(42, 3).generator().random(8)
    b = RngStream(42, 3).generator().random(8)
    np.testing.assert_array_equal(a, b)
    c = RngStream(42, 4).generator().random(8)
    assert not np.array_equal(a, c)


def test_walk_deterministic_and_valid():
    g = generate(FamilySpec("gasket", 2))
    f1 = run_walk(g, 0, 500, RngStream(1, 0))
    f2 = run_walk(g, 0, 500, RngStream(1, 0))
    np.testing.assert_array_equal(f1.trajectory, f2.trajectory)
    adj, _ = g.adjacency()
    for t in range(f1.t):
        assert f1.trajectory[t + 1] in adj[f1.trajectory[t]]


def test_counts_exact():
    g = generate(FamilySpec("vicsek", 1))
    field = run_walk(g, 0, 300, RngStream(2, 0))
    field.verify_counts()
    assert int(field.counts.sum()) == field.t
    # occupation identity with f == 1 is the step count, exactly
    assert occupation_integral(field, np.ones(g.n)) == float(field.t)


def test_occupation_integral_matches_trajectory_sum():
    g = generate(FamilySpec("gasket", 1))
    field = run_walk(g, 2, 400, RngStream(3, 1))
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.n)
    direct = float(f[field.trajectory[: field.t]].sum())
    assert occupation_integral(field, f) == pytest.approx(direct, rel=1e-12)


def test_local_times_scale_by_mu():
    g = build_graph([(0, 1, 2.0), (1, 2, 1.0)])
    field = run_walk(g, 0, 100, RngStream(4, 0))
    lts = field.local_times()
    np.testing.assert_allclose(lts, field.counts / g.mu, rtol=1e-15)


def test_trajectory_not_retained():
    g = generate(FamilySpec("path", 4))
    field = run_walk(g, 0, 50, RngStream(5, 0), retain_trajectory=False)
    assert field.trajectory is None
    with pytest.raises(TrajectoryNotRetained):
        field.verify_counts()


def test_negative_steps_rejected():
    g = generate(FamilySpec("path", 4))
    with pytest.raises(RangeError):
        run_walk(g, 0, -1, RngStream(6, 0))


def test_inverse_local_time():
    g = generate(FamilySpec("path", 3))
    field = run_walk(g, 0, 200, RngStream(7, 0))
    traj = field.trajectory
    visits = np.flatnonzero(traj == 1)
    for i in (0, 1, 2):
        if len(visits) > i:
            assert inverse_local_time(traj, 1, i) == visits[i]
    with pytest.raises(NotReached):
        inverse_local_time(traj, 1, len(visits))


def test_cover_time_semantics():
    g = generate(FamilySpec("gasket", 1))
    s = cover_time(g, 0, RngStream(8, 0), cap=100000)
    assert s.tau_cov_tilde == s.tau_cov + 1
    # at tau_cov the last vertex is first visited, so one step earlier the
    # cover is still open
    field = run_walk(g, 0, s.tau_cov + 1, RngStream(8, 0))
    assert np.all(np.bincount(field.trajectory[: s.tau_cov + 1], minlength=g.n) > 0)
    assert np.any(np.bincount(field.trajectory[: s.tau_cov], minlength=g.n) == 0)


def test_cover_time_cap():
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(CapExceeded) as ei:
        cover_time(g, 0, RngStream(9, 0), cap=10)
    assert ei.value.cap == 10
    assert ei.value.uncovered > 0


def test_max_scaled_difference_statistic_brute_force():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    steps = 60
    stat = max_scaled_difference_statistic(g, inv_den, 1.0, 0, steps, RngStream(10, 0))
    # recompute by replaying the identical trajectory
    field = run_walk(g, 0, steps, RngStream(10, 0))
    best = 0.0
    counts = np.zeros(g.n)
    for t in range(steps + 1):
        lts = counts / g.mu
        diff = np.abs(lts[:, None] - lts[None, :]) * inv_den
        best = max(best, float(diff.max()))
        if t < steps:
            counts[field.trajectory[t]] += 1
    assert stat == pytest.approx(best, rel=1e-12)


def test_truncated_modulus_trial_saturates():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    trial = truncated_modulus_trial(g, R, 0, L_trunc=1.0, steps=50000, rng=RngStream(11, 0))
    assert trial.saturated
    assert trial.steps_run < 50000
    # rerunning with the saturation step as the budget freezes the statistic
    again = truncated_modulus_trial(
        g, R, 0, L_trunc=1.0, steps=trial.steps_run, rng=RngStream(11, 0)
    )
    assert again.statistic == pytest.approx(trial.statistic, rel=1e-12)


def test_truncated_modulus_trial_no_truncation_matches_plain():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    steps = 40
    trial = truncated_modulus_trial(g, R, 0, L_trunc=1e9, steps=steps, rng=RngStream(12, 0))
    assert not trial.saturated
    # far below truncation the statistic is the plain one at scale 1/r
    inv_den = sqrt_gauge_reciprocal(R)
    stat = max_scaled_difference_statistic(
        g, inv_den, 1.0 / R.r_diam, 0, steps, RngStream(12, 0)
    )
    assert trial.statistic == pytest.approx(stat, rel=1e-12)


def test_validate_every_keeps_the_running_max_bit_equal():
    g = generate(FamilySpec("gasket", 2))
    R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    args = (g, inv_den, 1.0 / R.r_diam, 0, 300)
    plain = max_scaled_difference_statistic(*args, RngStream(13, 0))
    checked = max_scaled_difference_statistic(*args, RngStream(13, 0), validate_every=1)
    assert checked == plain
    plain = truncated_modulus_trial(g, R, 0, 1.0, 5000, RngStream(14, 0))
    checked = truncated_modulus_trial(g, R, 0, 1.0, 5000, RngStream(14, 0), validate_every=1)
    assert checked == plain
    assert checked.saturated and checked.steps_run < 5000


def test_validate_every_catches_a_lagging_running_max():
    lt = np.array([0.0, 1.0, 3.0])
    inv_den = 1.0 - np.eye(3)
    _validate_running_max(lt, inv_den, 1.0, 3.0, 1)
    with pytest.raises(InvariantViolation):
        _validate_running_max(lt, inv_den, 1.0, 2.0, 1)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_occupation_identity_property(seed, index):
    g = generate(FamilySpec("gasket", 1))
    field = run_walk(g, 0, 120, RngStream(seed, index))
    field.verify_counts()
    # sum_x L_t(x) mu_x == t exactly in exact arithmetic; counts are integers
    assert int(field.counts.sum()) == field.t
