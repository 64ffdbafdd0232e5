import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resistwalk import (
    FamilySpec,
    RngStream,
    build_graph,
    cover_time,
    generate,
    resistance_matrix,
    run_walk,
    walk_group,
)
from resistwalk.errors import CapExceeded, InvariantViolation, RangeError
from resistwalk import walk_sim
from resistwalk.experiments import sqrt_gauge_reciprocal
from resistwalk.walk_sim import _validate_running_max

import graph_oracle
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
    adj, _ = graph_oracle.adjacency(g)
    for t in range(f1.t):
        assert f1.trajectory[t + 1] in adj[f1.trajectory[t]]


def test_counts_exact():
    g = generate(FamilySpec("vicsek", 1))
    field = run_walk(g, 0, 300, RngStream(2, 0))
    field.verify_counts()
    assert int(field.counts.sum()) == field.t
    # occupation identity with f == 1 is the step count, exactly
    assert float(np.ones(g.n) @ (field.local_times() * g.mu)) == float(field.t)


def test_occupation_integral_matches_trajectory_sum():
    g = generate(FamilySpec("gasket", 1))
    field = run_walk(g, 2, 400, RngStream(3, 1))
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.n)
    direct = float(f[field.trajectory[: field.t]].sum())
    # sum_x f(x) L_t(x) mu_x from the field's local times
    assert float(f @ (field.local_times() * g.mu)) == pytest.approx(direct, rel=1e-12)


def test_local_times_scale_by_mu():
    g = build_graph([(0, 1, 2.0), (1, 2, 1.0)])
    field = run_walk(g, 0, 100, RngStream(4, 0))
    lts = field.local_times()
    np.testing.assert_allclose(lts, field.counts / g.mu, rtol=1e-15)


def test_negative_steps_rejected():
    g = generate(FamilySpec("path", 4))
    with pytest.raises(RangeError):
        run_walk(g, 0, -1, RngStream(6, 0))


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


def _thm_b(g, R, start, level, steps, rng, validate_every=0):
    """One thm-b trial: the running max of |V(x) - V(y)| / sqrt(Rt), where a
    visit to v adds 1 / (mu_v r) to V(v) and V stops at `level`."""
    return walk_group(
        g, start, [rng], steps, inv_den=sqrt_gauge_reciprocal(R),
        inc=1.0 / (g.mu * R.r_diam), level=level, validate_every=validate_every,
    )


def test_running_max_brute_force():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    steps = 60
    stat = walk_group(g, 0, [RngStream(10, 0)], steps, inv_den=inv_den).statistic[0]
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


def test_truncated_running_max_saturates():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    trial = _thm_b(g, R, 0, 1.0, 50000, RngStream(11, 0))
    assert trial.stopped[0]
    assert trial.steps[0] < 50000
    # rerunning with the saturation step as the budget freezes the statistic
    again = _thm_b(g, R, 0, 1.0, int(trial.steps[0]), RngStream(11, 0))
    assert again.statistic[0] == pytest.approx(trial.statistic[0], rel=1e-12)


def test_running_max_far_below_the_level_matches_the_untruncated_one():
    g = generate(FamilySpec("gasket", 1))
    R = resistance_matrix(g)
    steps = 40
    trial = _thm_b(g, R, 0, 1e9, steps, RngStream(12, 0))
    assert not trial.stopped[0]
    # far below truncation the statistic is the plain one at scale 1/r
    inv_den = sqrt_gauge_reciprocal(R)
    plain = walk_group(g, 0, [RngStream(12, 0)], steps, inv_den=inv_den)
    assert trial.statistic[0] == pytest.approx(plain.statistic[0] / R.r_diam, rel=1e-12)


def test_validate_every_keeps_the_running_max_bit_equal():
    g = generate(FamilySpec("gasket", 2))
    R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    plain = walk_group(g, 0, [RngStream(13, 0)], 300, inv_den=inv_den)
    checked = walk_group(g, 0, [RngStream(13, 0)], 300, inv_den=inv_den, validate_every=1)
    assert checked.statistic[0] == plain.statistic[0]
    plain = _thm_b(g, R, 0, 1.0, 5000, RngStream(14, 0))
    checked = _thm_b(g, R, 0, 1.0, 5000, RngStream(14, 0), validate_every=1)
    assert (checked.statistic[0], checked.steps[0], checked.stopped[0]) == (
        plain.statistic[0], plain.steps[0], plain.stopped[0]
    )
    assert checked.stopped[0] and checked.steps[0] < 5000


def test_validate_every_catches_a_lagging_running_max():
    lt = np.array([0.0, 1.0, 3.0])
    inv_den = 1.0 - np.eye(3)
    _validate_running_max(lt, inv_den, 3.0, 1)
    with pytest.raises(InvariantViolation):
        _validate_running_max(lt, inv_den, 2.0, 1)


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
    trial = _thm_b(g, R, 0, L_trunc, steps, rng)
    assert trial.stopped[0] == saturated
    assert trial.steps[0] == steps_run
    assert trial.statistic[0] == pytest.approx(best, rel=1e-12)
    assert saturated == (steps == 4000)


def test_weighted_max_scaled_difference_matches_replay(weighted):
    g, R, inv_den = weighted
    steps = 300
    rng = RngStream(23, 0)
    traj = run_walk(g, 5, steps, rng).trajectory
    best, steps_run, _ = _replay_running_max(g, inv_den, 1.0 / g.mu, np.inf, traj, steps)
    assert steps_run == steps
    stat = walk_group(g, 5, [rng], steps, inv_den=inv_den).statistic[0]
    assert stat == pytest.approx(best, rel=1e-12)


# -- uniforms drawn per stream ------------------------------------------------

@pytest.fixture
def uniforms_drawn(monkeypatch):
    """Count the uniforms every RngStream generator hands out, per stream."""
    drawn = Counter()
    original = RngStream.generator

    class Counting:
        def __init__(self, gen, key):
            self.gen, self.key = gen, key

        def random(self, size=None, out=None):
            drawn[self.key] += 1 if size is None else int(np.prod(size))
            return self.gen.random(size, out=out)

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
        trial = _thm_b(g, R, 0, 1.0, 10**6, RngStream(32, k))
        assert trial.stopped[0]
        assert uniforms_drawn[32, k] <= 2 * trial.steps[0] + 256
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
    # the same bounds hold in groups whose trials start from different vertices
    g4 = generate(FamilySpec("gasket", 4))
    starts = np.arange(300) % g4.n
    rngs = [RngStream(37, i) for i in range(300)]
    w = walk_group(g4, starts, rngs, 3000, cover=True)
    assert 0 < w.stopped.sum() < 300
    for i in range(300):
        if w.stopped[i]:
            assert uniforms_drawn[37, i] <= 2 * w.steps[i] + 256
        else:
            assert uniforms_drawn[37, i] == w.steps[i] == 3000
    rngs = [RngStream(38, i) for i in range(150)]
    w = walk_group(g, np.arange(150) % g.n, rngs, 10**6, inv_den=sqrt_gauge_reciprocal(R),
                   inc=1.0 / (g.mu * R.r_diam), level=1.0)
    assert w.stopped.all()
    assert all(uniforms_drawn[38, i] <= 2 * w.steps[i] + 256 for i in range(150))


# -- recycled streams ------------------------------------------------------------

def _fresh_generator(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _fresh_uniforms(seed, index, m):
    return _fresh_generator(seed, index).random(m)


@pytest.fixture
def free_list(monkeypatch):
    """An empty pool of recycled generators, private to the test."""
    free = []
    monkeypatch.setattr(walk_sim, "_free_generators", free)
    return free


@pytest.mark.parametrize("used", ["odd-block", "scalar", "uint32", "raw", "uint32-and-raw"])
def test_a_recycled_stream_replays_a_fresh_one(free_list, used):
    gen = RngStream(50, 0).generator()
    if used == "odd-block":
        gen.random(7)  # stops mid-way through Philox's four-word buffer
    elif used == "scalar":
        gen.random()
    elif used == "uint32":
        gen.integers(0, 2**32, dtype=np.uint32)  # leaves a spare 32-bit half
    elif used == "raw":
        gen.bit_generator.random_raw(3)
    else:  # a spare 32-bit half and a partly used buffer at once
        gen.integers(0, 2**32, dtype=np.uint32)
        gen.bit_generator.random_raw(2)
        state = gen.bit_generator.state
        assert state["has_uint32"] and 0 < state["buffer_pos"] < 4
    walk_sim._recycle([gen])
    again = RngStream(51, 9).generator()
    assert again is gen and not free_list
    fresh = _fresh_generator(51, 9)
    np.testing.assert_array_equal(again.random(1001), fresh.random(1001))
    # 32-bit draws read the spare half-word, so it must be reset as well
    np.testing.assert_array_equal(
        again.integers(0, 2**32, 3, dtype=np.uint32), fresh.integers(0, 2**32, 3, dtype=np.uint32)
    )


def test_a_walk_group_that_raised_hands_back_streams_that_replay(free_list, monkeypatch):
    g = generate(FamilySpec("gasket", 2))
    R = resistance_matrix(g)

    def fail(*args):
        raise InvariantViolation("stop")

    monkeypatch.setattr(walk_sim, "_validate_running_max", fail)
    with pytest.raises(InvariantViolation):
        walk_group(g, 0, [RngStream(52, i) for i in range(5)], 1000,
                   inv_den=sqrt_gauge_reciprocal(R), validate_every=3)
    assert len(free_list) == 5
    for i in range(5):
        np.testing.assert_array_equal(
            RngStream(53, i).generator().random(333), _fresh_uniforms(53, i, 333)
        )
    assert not free_list


def test_walk_group_recycles_only_the_generators_it_opened(free_list, monkeypatch):
    g = generate(FamilySpec("gasket", 1))
    mine = RngStream(54, 0).generator()
    walk_group(g, 0, [RngStream(55, i) for i in range(3)], 20)
    assert len(free_list) == 3 and all(gen is not mine for gen in free_list)
    np.testing.assert_array_equal(mine.random(5), _fresh_uniforms(54, 0, 5))

    class Wrapped:
        def __init__(self, gen):
            self.gen = gen

        def random(self, size=None, out=None):
            return self.gen.random(size, out=out)

    free_list.clear()
    original = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: Wrapped(original(self)))
    walk_group(g, 0, [RngStream(55, i) for i in range(3)], 20)
    assert not free_list


# -- start vertices --------------------------------------------------------------

@pytest.fixture
def no_stream_opened(monkeypatch):
    def refuse(self):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(RngStream, "generator", refuse)


@pytest.mark.parametrize("length", [0, 2, 4])
def test_walk_group_rejects_a_start_array_of_the_wrong_length(no_stream_opened, length):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError):
        walk_group(g, np.zeros(length, dtype=np.int64), [RngStream(56, i) for i in range(3)], 10)


@pytest.mark.parametrize("bad", [-1, 15])
def test_walk_group_rejects_a_start_outside_the_graph(no_stream_opened, bad):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError):
        walk_group(g, np.array([0, bad, 3]), [RngStream(57, i) for i in range(3)], 10)


# -- wrong-shape gauges --------------------------------------------------------

@pytest.mark.parametrize("shape", [(14, 14), (15, 14), (14, 15)])
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
@example(seed=10623208, start=1, validate_every=0)
@settings(max_examples=5, deadline=None)
def test_group_kernel_matches_the_scalar_oracle(
    oracle_graphs, graph, B, shape, seed, start, validate_every
):
    """One start vertex for the whole group and, for B > 1, a start vertex
    per trial drawn from the seed (at least two distinct)."""
    if graph == "gasket":
        g, R = oracle_graphs["gasket"]
    else:
        g = _random_weighted_graph(seed)
        R = resistance_matrix(g)
    rngs = [RngStream(seed, i) for i in range(B)]
    _check_group_against_oracle(g, R, shape, start, rngs, validate_every)
    if B > 1:
        starts = np.random.default_rng(seed).integers(0, g.n, B)
        starts[-1] = (starts[0] + 1) % g.n
        _check_group_against_oracle(g, R, shape, starts, rngs, validate_every)


def _check_group_against_oracle(g, R, shape, start, rngs, validate_every):
    """walk_group from `start` (one vertex, or one per trial) against the
    scalar oracle, trial by trial, bit for bit."""
    inv_den = sqrt_gauge_reciprocal(R)
    starts = np.broadcast_to(start, len(rngs)).tolist()
    if shape == "thm-a":
        w = walk_group(g, start, rngs, 80, inv_den=inv_den, validate_every=validate_every)
        for i, rng in enumerate(rngs):
            best, steps, _ = walk_oracle.running_max(
                g, 1.0 / g.mu, np.inf, inv_den, starts[i], 80, rng
            )
            assert (0.7 * w.statistic[i], w.steps[i], w.stopped[i]) == (0.7 * best, steps, False)
    elif shape.startswith("thm-b"):
        inc = 1.0 / (g.mu * R.r_diam)
        # Vertex v saturates after about mu_v * r_diam visits, never fewer
        # than the floor, so a shorter walk than the sum of the floors
        # cannot saturate every vertex.
        unsaturable = int(np.floor(g.mu * R.r_diam).sum()) - 1
        cap = 20000 if shape == "thm-b-saturated" else min(25, unsaturable)
        w = walk_group(g, start, rngs, cap, inv_den=inv_den, inc=inc, level=1.0,
                       validate_every=validate_every)
        for i, rng in enumerate(rngs):
            best, steps, below = walk_oracle.running_max(
                g, inc, 1.0, inv_den, starts[i], cap, rng
            )
            assert (w.statistic[i], w.steps[i], w.stopped[i]) == (best, steps, below == 0)
        assert w.stopped.all() == (shape == "thm-b-saturated")
    elif shape.startswith("cover"):
        cap = 20000 if shape == "cover" else 4
        w = walk_group(g, start, rngs, cap, cover=True)
        for i, rng in enumerate(rngs):
            tau, uncovered = walk_oracle.cover(g, starts[i], rng, cap)
            assert w.stopped[i] == (tau is not None)
            assert w.steps[i] == (cap if tau is None else tau)
            assert w.uncovered[i] == uncovered
        assert w.stopped.all() == (shape == "cover")
    else:
        marks = [0, 17, 17, 60]
        w = walk_group(g, start, rngs, 60, marks=marks, record=True)
        for i, rng in enumerate(rngs):
            traj = walk_oracle.run_trajectory(g, starts[i], 60, rng)
            np.testing.assert_array_equal(w.paths[i], traj)
            for m, t in enumerate(marks):
                np.testing.assert_array_equal(w.counts[m, i], np.bincount(traj[:t], minlength=g.n))


# -- the event kernel: fresh visits only ------------------------------------------

def _fresh_visit_counts(inc, level):
    """K_v by a plain Python replay of x = min(x + inc_v, level)."""
    counts = []
    for a in inc.tolist():
        x, k = 0.0, 0
        while x < level:
            x, k = min(x + a, level), k + 1
        counts.append(k)
    return np.array(counts)


def _event_case(g, R, inc_kind):
    """(inc, level) for one kind of increment vector on g."""
    level = 1.0
    inc = 1.0 / (g.mu * R.r_diam)
    rnd = np.random.default_rng(g.n)
    if inc_kind == "one-visit":  # K_v = 1 where inc >= level
        inc = inc.copy()
        inc[::2] = level
        inc[1::4] = 2.5 * level
    elif inc_kind == "uneven":
        inc = rnd.uniform(0.02, 0.7, g.n)
    elif inc_kind == "zeros":  # V never reaches the level at these vertices
        inc = inc.copy()
        inc[rnd.choice(g.n, 2, replace=False)] = 0.0
    return inc, level


@pytest.mark.parametrize("graph", ["gasket", "weighted"])
@pytest.mark.parametrize("inc_kind", ["mu", "one-visit", "uneven", "zeros"])
def test_event_kernel_matches_the_scalar_oracle(oracle_graphs, graph, inc_kind):
    """Groups whose walks start from many vertices, where some saturate and
    the others are censored at a limit set between their saturation times."""
    if graph == "gasket":
        g, R = oracle_graphs["gasket"]
    else:
        g = _random_weighted_graph(77)
        R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    inc, level = _event_case(g, R, inc_kind)
    B = 60
    starts = np.arange(B) % g.n
    rngs = [RngStream(60, i) for i in range(B)]
    limit = 3000
    if inc_kind != "zeros":
        full = [walk_oracle.running_max(g, inc, level, inv_den, s, 20000, rng)
                for s, rng in zip(starts.tolist(), rngs)]
        limit = int(np.median([steps for _, steps, _ in full]))
    want = [walk_oracle.running_max(g, inc, level, inv_den, s, limit, rng)
            for s, rng in zip(starts.tolist(), rngs)]
    w = walk_group(g, starts, rngs, limit, inv_den=inv_den, inc=inc, level=level)
    np.testing.assert_array_equal(w.statistic, [best for best, _, _ in want])
    np.testing.assert_array_equal(w.steps, [steps for _, steps, _ in want])
    np.testing.assert_array_equal(w.stopped, [below == 0 for _, _, below in want])
    if inc_kind == "zeros":
        assert not w.stopped.any() and (w.steps == limit).all()
    else:
        assert 0 < w.stopped.sum() < B
    if inc_kind == "one-visit":
        K = _fresh_visit_counts(inc, level)
        assert (K[::2] == 1).all() and (K[1::4] == 1).all() and K.max() > 1


@pytest.mark.parametrize("every", [1, 7, 50])
def test_validate_every_checks_every_kth_fresh_visit(monkeypatch, every):
    g = generate(FamilySpec("gasket", 2))
    R = resistance_matrix(g)
    inv_den = sqrt_gauge_reciprocal(R)
    inc = 1.0 / (g.mu * R.r_diam)
    F = int(_fresh_visit_counts(inc, 1.0).sum())
    real = walk_sim._validate_running_max
    seen = []

    def counting(lt, inv_den, best, e):
        seen.append(e)
        real(lt, inv_den, best, e)

    monkeypatch.setattr(walk_sim, "_validate_running_max", counting)
    rngs = [RngStream(62, i) for i in range(9)]
    w = walk_group(g, np.arange(9), rngs, 10**6, inv_den=inv_den, inc=inc, level=1.0,
                   validate_every=every)
    assert w.stopped.all()  # so every walk has exactly F fresh visits
    assert len(seen) == 9 * (F // every) and all(e % every == 0 for e in seen)
    plain = walk_group(g, np.arange(9), rngs, 10**6, inv_den=inv_den, inc=inc, level=1.0)
    np.testing.assert_array_equal(w.statistic, plain.statistic)

    def lagging(lt, inv_den, best, e):  # a running max that fell behind by half
        real(lt, inv_den, 0.5 * best, e)

    monkeypatch.setattr(walk_sim, "_validate_running_max", lagging)
    with pytest.raises(InvariantViolation):
        walk_group(g, np.arange(9), rngs, 10**6, inv_den=inv_den, inc=inc, level=1.0,
                   validate_every=every)


@pytest.mark.parametrize("bad", ["nan", "inf", "negative", "shape"])
def test_walk_group_rejects_bad_increments(no_stream_opened, bad):
    g = generate(FamilySpec("gasket", 2))
    inc = np.full(g.n, 0.1)
    if bad == "shape":
        inc = inc[1:]
    else:
        inc[3] = {"nan": np.nan, "inf": np.inf, "negative": -0.1}[bad]
    with pytest.raises(RangeError):
        walk_group(g, 0, [RngStream(63, i) for i in range(3)], 50,
                   inv_den=np.ones((g.n, g.n)), inc=inc, level=1.0)


def test_a_cover_group_frees_each_block_before_drawing_the_next():
    # 256 walks take 256-step blocks of about 0.5 MB; holding the previous
    # block (and its visited masks) while the next is drawn peaked at 1.7 MB
    g = generate(FamilySpec("gasket", 4))
    rngs = [RngStream(7, k) for k in range(256)]
    walk_group(g, 0, rngs, 1, cover=True)  # build the walker tables first
    tracemalloc.start()
    try:
        w = walk_group(g, 0, rngs, 20_000, cover=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.stopped.all()
    assert peak < 1.25e6


def test_a_recycled_stream_replays_a_fresh_one_at_the_largest_key(free_list):
    walk_sim._recycle([RngStream(1, 2).generator()])
    top = 2**64 - 1
    again = RngStream(-1, top).generator()  # the key wraps to 64 bits
    assert not free_list
    np.testing.assert_array_equal(again.random(9), _fresh_uniforms(top, top, 9))


# -- the digit map and the jump table ------------------------------------------

TABLE_GRAPHS = [("gasket", 1), ("gasket", 3), ("vicsek", 1), ("vicsek", 2), ("path", 1),
                ("path", 6), ("carpet", 1), ("wired_carpet", 1), ("hub", 23)]
# graphs with more than MOST_DIGITS digits, which step once per gather
MANY_DIGIT_GRAPHS = [("wired_carpet", 2), ("hubs", 0), ("hubs", 1000)]


def _uniform_graph(family, level):
    """A family graph; "hub" d: uniform weights on a hub of degree d with a
    two-edge path hanging off it, degrees 1, 2 and d; "hubs" d: hubs of
    degree 47, 12, 14 and, when d > 0, d.  At d = 23 and 47, j / d rounds
    to a double above or below the threshold of int(u * d) for some j."""
    if family == "hub":
        return build_graph([(0, i, 1.0) for i in range(1, level + 1)] + [(level, level + 1, 1.0)])
    if family != "hubs":
        return generate(FamilySpec(family, level))
    edges = [(0, i) for i in range(1, 48)] + [(1, i) for i in range(2, 13)]
    edges += [(2, i) for i in range(13, 25)]
    edges += [(24, i) for i in range(25, 24 + level)]
    return build_graph([(a, b, 1.0) for a, b in edges])


def test_thresholds_are_where_int_u_times_d_steps():
    degrees = [*range(1, 130), 208, 1000]
    want = set()
    for d in degrees:
        for j in range(1, d):
            # the least double u with int(u * d) >= j, found in a window of
            # seven doubles around j / d that reaches below it
            near = [j / d]
            for _ in range(3):
                near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 1.0)]
            t = min(x for x in near if int(x * d) >= j)
            assert t > near[0]
            want.add(t)
    assert walk_sim._thresholds(degrees, math.inf).tolist() == sorted(want)
    assert walk_sim._thresholds(degrees, len(want) - 1) is None
    assert walk_sim._thresholds(degrees, len(want)).tolist() == sorted(want)


def _edge_uniforms(g):
    """Every double at which int(u * d) steps for a degree d of g, its two
    neighbouring doubles, 0.0 and the largest double below 1."""
    thr = walk_sim._thresholds(np.unique(walk_oracle.ScalarWalker(g).deg).tolist(), math.inf)
    vals = np.concatenate([thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0),
                           [0.0, np.nextafter(1.0, 0.0)]])
    return np.unique(vals)


@pytest.mark.parametrize("family, level", TABLE_GRAPHS)
def test_digit_tables_step_as_int_u_times_degree(family, level):
    g = _uniform_graph(family, level)
    w = walk_sim._Walker(g)
    ref = walk_oracle.ScalarWalker(g)
    x = _edge_uniforms(g)
    np.testing.assert_array_equal(x[np.isin(x, w.thr)], w.thr)  # every threshold is read
    q = w.digits(x[:, None]).ravel().astype(np.int64)  # one walk reading every value
    np.testing.assert_array_equal(q, np.searchsorted(w.thr, x, side="right"))
    for v in range(g.n):
        want = [ref.nbrs[v][int(u * ref.deg[v])] for u in x.tolist()]
        np.testing.assert_array_equal(w.step[v * w.Q + q], want)


@pytest.mark.parametrize("family, level", TABLE_GRAPHS + MANY_DIGIT_GRAPHS)
def test_paths_match_the_scalar_walker_on_the_thresholds(family, level):
    g = _uniform_graph(family, level)
    w = walk_sim._Walker(g)
    ref = walk_oracle.ScalarWalker(g)
    x = _edge_uniforms(g)
    rnd = np.random.default_rng(g.n)
    r = getattr(w, "r", 1)
    for B in (1, 3, 16):
        # block lengths below r, at r, off a multiple of r and long
        for k in sorted({1, max(1, r - 1), r, r + 1, 3 * r + 2, len(x) + 5}):
            u = rnd.choice(x, (B, k))
            cur = rnd.integers(0, g.n, B)
            path = w.paths(cur, w.digits(u))
            assert path.shape == (k + 1, B)
            for i in range(B):
                np.testing.assert_array_equal(path[:, i], [cur[i], *ref.path(int(cur[i]), u[i])])


@pytest.mark.parametrize("family, level", [*TABLE_GRAPHS, ("gasket", 5), ("path", 2**15)])
def test_the_jump_table_is_the_largest_that_fits(family, level):
    g = _uniform_graph(family, level)
    w = walk_sim._Walker(g)
    Q, r, n = w.Q, w.r, g.n
    assert Q <= walk_sim.MOST_DIGITS
    assert w.step.size == n * Q
    assert w.jump.size == n * Q**r <= max(walk_sim.TABLE_ENTRIES, n * Q)
    assert Q == 1 or n * Q ** (r + 1) > walk_sim.TABLE_ENTRIES
    if (family, level) == ("path", 2**15):
        assert (Q, r) == (2, 1)  # a path this long gets one step per gather


@pytest.mark.parametrize("family, level", MANY_DIGIT_GRAPHS)
def test_a_graph_with_many_digits_keeps_no_tables(family, level):
    g = _uniform_graph(family, level)
    w = walk_sim._Walker(g)
    assert w.jump is None and not hasattr(w, "step")
    # nothing the walker holds grows with the number of digits
    held = [v for v in vars(w).values() if isinstance(v, np.ndarray)]
    assert sum(a.size for a in held) <= 2 * g.n * max(len(a) for a in graph_oracle.adjacency(g)[0])
    u = np.random.default_rng(0).random((4, 50))
    assert w.digits(u).base is u  # read as drawn
    rngs = [RngStream(68, i) for i in range(4)]
    got = walk_group(g, 0, rngs, 300, record=True).paths
    for i, rng in enumerate(rngs):
        np.testing.assert_array_equal(got[i], walk_oracle.run_trajectory(g, 0, 300, rng))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_a_cover_group_matches_the_scalar_oracle_where_many_walks_cover_in_one_block(level):
    g = generate(FamilySpec("gasket", level))
    B = 64
    starts = np.arange(B) % g.n
    rngs = [RngStream(64 + level, i) for i in range(B)]
    w = walk_group(g, starts, rngs, 10**6, cover=True)
    want = [walk_oracle.cover(g, s, rng, 10**6) for s, rng in zip(starts.tolist(), rngs)]
    np.testing.assert_array_equal(w.steps, [tau for tau, _ in want])
    assert w.stopped.all() and not w.uncovered.any()


# -- checks of bad input and broken invariants -------------------------------------

@pytest.mark.parametrize("level", [0.0, -1.0, np.nan])
def test_walk_group_rejects_a_level_that_is_not_positive(no_stream_opened, level):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError, match="level"):
        walk_group(g, 0, [RngStream(65, i) for i in range(3)], 50,
                   inv_den=np.ones((g.n, g.n)), level=level)


def test_verify_counts_catches_counts_that_disagree_with_the_trajectory():
    g = generate(FamilySpec("gasket", 2))
    field = run_walk(g, 0, 200, RngStream(66, 0))
    field.verify_counts()
    counts = field.counts.copy()
    counts[field.trajectory[0]] -= 1
    counts[field.trajectory[1]] += 1  # the same total, one visit moved
    bad = walk_sim.LocalTimeField(counts=counts, t=field.t, graph=g, trajectory=field.trajectory)
    with pytest.raises(InvariantViolation):
        bad.verify_counts()


@pytest.mark.parametrize("cap", [0, -5])
def test_cover_time_rejects_a_cap_below_one(no_stream_opened, cap):
    g = generate(FamilySpec("gasket", 2))
    with pytest.raises(RangeError, match="cap"):
        cover_time(g, 0, RngStream(67, 0), cap)
