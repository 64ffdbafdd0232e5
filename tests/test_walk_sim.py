from collections import Counter

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
    walk_group,
)
from resistwalk.errors import (
    CapExceeded,
    InvariantViolation,
    NotReached,
    RangeError,
    TrajectoryNotRetained,
)
from resistwalk.walk_sim import _validate_running_max, sqrt_gauge_reciprocal

import walk_oracle


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


# -- weighted graphs: replay every kernel against one run_walk trajectory ----

WEIGHTED_EDGES = [
    (0, 1, 1.0), (1, 2, 2.5), (2, 3, 0.5), (3, 0, 3.0),
    (1, 3, 1.5), (3, 4, 0.25), (4, 5, 2.0), (2, 5, 1.0),
]


@pytest.fixture(scope="module")
def weighted():
    g = build_graph(WEIGHTED_EDGES)
    assert not g.uniform_weights()
    R = resistance_matrix(g)
    return g, R, sqrt_gauge_reciprocal(R)


def _replay_running_max(g, inv_den, inc, level, traj, steps):
    """(best, steps run, saturated) by full O(n^2) recomputation after every
    step of the replayed trajectory; values accumulate by repeated addition
    and stop at `level`, exactly as the kernels' convention says."""
    vals = np.zeros(g.n)
    best = 0.0
    t = 0
    while t < steps and not np.all(vals >= level):
        v = traj[t]
        if vals[v] < level:
            vals[v] = min(vals[v] + inc[v], level)
        t += 1
        best = max(best, float((np.abs(vals[:, None] - vals[None, :]) * inv_den).max()))
    return best, t, bool(np.all(vals >= level))


@pytest.mark.parametrize("index", range(4))
def test_weighted_cover_time_matches_replay(weighted, index):
    g = weighted[0]
    rng = RngStream(21, index)
    traj = run_walk(g, 3, 5000, rng).trajectory
    seen = np.zeros(g.n, dtype=bool)
    first_cover = None
    for t, x in enumerate(traj):
        seen[x] = True
        if seen.all():
            first_cover = t
            break
    assert first_cover is not None
    s = cover_time(g, 3, rng, cap=5000)
    assert s.tau_cov == first_cover
    assert s.tau_cov_tilde == first_cover + 1
    assert cover_time(g, 3, rng, cap=first_cover).tau_cov == first_cover
    for cap in range(1, first_cover):
        with pytest.raises(CapExceeded) as ei:
            cover_time(g, 3, rng, cap=cap)
        assert ei.value.cap == cap
        assert ei.value.uncovered == g.n - len(set(traj[: cap + 1].tolist()))


@pytest.mark.parametrize("L_trunc,steps", [(1.0, 4000), (3.0, 4000), (3.0, 40)])
def test_weighted_truncated_trial_matches_replay(weighted, L_trunc, steps):
    g, R, inv_den = weighted
    rng = RngStream(22, int(L_trunc))
    traj = run_walk(g, 0, steps, rng).trajectory
    inc = 1.0 / (g.mu * R.r_diam)
    best, steps_run, saturated = _replay_running_max(g, inv_den, inc, L_trunc, traj, steps)
    trial = truncated_modulus_trial(g, R, 0, L_trunc, steps, rng)
    assert trial.saturated == saturated
    assert trial.steps_run == steps_run
    assert trial.statistic == pytest.approx(best, rel=1e-12)
    assert saturated == (steps == 4000)


def test_weighted_max_scaled_difference_matches_replay(weighted):
    g, R, inv_den = weighted
    steps = 300
    rng = RngStream(23, 0)
    traj = run_walk(g, 5, steps, rng).trajectory
    best, steps_run, _ = _replay_running_max(g, inv_den, 1.0 / g.mu, np.inf, traj, steps)
    assert steps_run == steps
    stat = max_scaled_difference_statistic(g, inv_den, 0.5, 5, steps, rng)
    assert stat == pytest.approx(0.5 * best, rel=1e-12)


# -- uniforms drawn per stream ------------------------------------------------

@pytest.fixture
def uniforms_drawn(monkeypatch):
    """Count the uniforms every RngStream generator hands out, per stream."""
    drawn = Counter()
    original = RngStream.generator

    class Counting:
        def __init__(self, gen, key):
            self.gen, self.key = gen, key

        def random(self, size=None):
            drawn[self.key] += 1 if size is None else int(np.prod(size))
            return self.gen.random(size)

    monkeypatch.setattr(
        RngStream, "generator", lambda self: Counting(original(self), (self.seed, self.index))
    )
    return drawn


def test_kernels_draw_about_the_uniforms_they_use(uniforms_drawn):
    g = generate(FamilySpec("gasket", 3))
    R = resistance_matrix(g)
    for k in range(5):
        s = cover_time(g, 0, RngStream(31, k), cap=10**6)
        assert uniforms_drawn[31, k] <= 2 * s.tau_cov + 256
        trial = truncated_modulus_trial(g, R, 0, 1.0, 10**6, RngStream(32, k))
        assert trial.saturated
        assert uniforms_drawn[32, k] <= 2 * trial.steps_run + 256
    # a censored cover draws exactly its cap, across several blocks
    with pytest.raises(CapExceeded):
        cover_time(generate(FamilySpec("gasket", 4)), 0, RngStream(33, 0), cap=1000)
    assert uniforms_drawn[33, 0] == 1000
    # in a group, every stream draws about the steps its own trial ran
    for B in (7, 100, 1500):
        rngs = [RngStream(34, B + i) for i in range(B)]
        w = walk_group(g, 0, rngs, 10**6, cover=True)
        assert w.stopped.all()
        assert all(uniforms_drawn[34, B + i] <= 2 * w.steps[i] + 256 for i in range(B))
    rngs = [RngStream(35, i) for i in range(100)]
    w = walk_group(g, 0, rngs, 10**6, inv_den=sqrt_gauge_reciprocal(R),
                   inc=1.0 / (g.mu * R.r_diam), level=1.0)
    assert w.stopped.all()
    assert all(uniforms_drawn[35, i] <= 2 * w.steps[i] + 256 for i in range(100))
    # in a partly censored cover group, every censored stream draws exactly the cap
    rngs = [RngStream(36, i) for i in range(100)]
    w = walk_group(generate(FamilySpec("gasket", 4)), 0, rngs, 3000, cover=True)
    assert 0 < w.stopped.sum() < 100
    for i in range(100):
        if w.stopped[i]:
            assert uniforms_drawn[36, i] <= 2 * w.steps[i] + 256
        else:
            assert uniforms_drawn[36, i] == w.steps[i] == 3000


# -- wrong-shape gauges --------------------------------------------------------

BAD_SHAPES = [(14, 14), (15, 14), (14, 15)]


@pytest.mark.parametrize("shape", BAD_SHAPES)
def test_max_scaled_difference_rejects_a_wrong_shape_gauge(shape):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError):
        max_scaled_difference_statistic(g, np.ones(shape), 1.0, 0, 50, RngStream(40, 0))


@pytest.mark.parametrize("shape", BAD_SHAPES)
def test_truncated_modulus_trial_rejects_a_wrong_shape_gauge(shape):
    g = generate(FamilySpec("gasket", 2))
    R = resistance_matrix(g)
    with pytest.raises(RangeError):
        truncated_modulus_trial(g, R, 0, 1.0, 50, RngStream(41, 0), inv_den=np.ones(shape))


@pytest.mark.parametrize("shape", BAD_SHAPES)
def test_walk_group_rejects_a_wrong_shape_gauge(shape):
    g = generate(FamilySpec("gasket", 2))
    rngs = [RngStream(42, i) for i in range(3)]
    with pytest.raises(RangeError):
        walk_group(g, 0, rngs, 50, inv_den=np.ones(shape))


@pytest.mark.parametrize("marks", [[30, 20], [-1, 20], [20, 51]])
def test_walk_group_rejects_marks_out_of_order(marks):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError):
        walk_group(g, 0, [RngStream(43, 0)], 50, marks=marks)


# -- the group kernel against the scalar oracle --------------------------------

def _random_weighted_graph(seed):
    """A connected graph on 6-9 vertices: a spanning path plus random chords,
    every edge with its own random weight."""
    rnd = np.random.default_rng(seed)
    n = int(rnd.integers(6, 10))
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = sorted(int(a) for a in rnd.choice(n, 2, replace=False))
        edges.add((u, v))
    return build_graph([(u, v, float(rnd.uniform(0.2, 3.0))) for u, v in sorted(edges)])


@pytest.fixture(scope="module")
def oracle_graphs():
    g = generate(FamilySpec("gasket", 2))
    return {"gasket": (g, resistance_matrix(g))}


SHAPES = ["thm-a", "thm-b-saturated", "thm-b-unsaturated", "cover", "cover-censored", "counts"]


@pytest.mark.parametrize("graph", ["gasket", "weighted"])
@pytest.mark.parametrize("B", [1, 2, 7, 100])
@pytest.mark.parametrize("shape", SHAPES)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start=st.integers(min_value=0, max_value=5),
    validate_every=st.sampled_from([0, 1]),
)
@settings(max_examples=5, deadline=None)
def test_group_kernel_matches_the_scalar_oracle(
    oracle_graphs, graph, B, shape, seed, start, validate_every
):
    if graph == "gasket":
        g, R = oracle_graphs["gasket"]
    else:
        g = _random_weighted_graph(seed)
        R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    rngs = [RngStream(seed, i) for i in range(B)]
    if shape == "thm-a":
        w = walk_group(g, start, rngs, 80, inv_den=inv_den, scale=0.7,
                       validate_every=validate_every)
        for i, rng in enumerate(rngs):
            best, steps, _ = walk_oracle.running_max(
                g, 1.0 / g.mu, np.inf, inv_den, start, 80, rng
            )
            assert (w.statistic[i], w.steps[i], w.stopped[i]) == (0.7 * best, steps, False)
    elif shape.startswith("thm-b"):
        cap = 20000 if shape == "thm-b-saturated" else 25
        inc = 1.0 / (g.mu * R.r_diam)
        w = walk_group(g, start, rngs, cap, inv_den=inv_den, inc=inc, level=1.0,
                       validate_every=validate_every)
        for i, rng in enumerate(rngs):
            best, steps, below = walk_oracle.running_max(g, inc, 1.0, inv_den, start, cap, rng)
            assert (w.statistic[i], w.steps[i], w.stopped[i]) == (best, steps, below == 0)
        assert w.stopped.all() == (shape == "thm-b-saturated")
    elif shape.startswith("cover"):
        cap = 20000 if shape == "cover" else 4
        w = walk_group(g, start, rngs, cap, cover=True)
        for i, rng in enumerate(rngs):
            tau, uncovered = walk_oracle.cover(g, start, rng, cap)
            assert w.stopped[i] == (tau is not None)
            assert w.steps[i] == (cap if tau is None else tau)
            assert w.uncovered[i] == uncovered
        assert w.stopped.all() == (shape == "cover")
    else:
        marks = [0, 17, 17, 60]
        w = walk_group(g, start, rngs, 60, marks=marks, record=True)
        for i, rng in enumerate(rngs):
            traj = walk_oracle.run_trajectory(g, start, 60, rng)
            np.testing.assert_array_equal(w.paths[i], traj)
            for m, t in enumerate(marks):
                np.testing.assert_array_equal(w.counts[m, i], np.bincount(traj[:t], minlength=g.n))
