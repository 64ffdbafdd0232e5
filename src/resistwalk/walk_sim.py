"""Random walk simulation: trajectories, local times, cover times and the
running pairwise local-time statistics.

Local time convention: L_t(x) = (1/mu_x) #{ 0 <= j < t : X_j = x }, so
L_0 = 0 and the step at time t adds the visit X_{t-1}.  The occupation
identity sum_x f(x) L_t(x) mu_x = sum_{j<t} f(X_j) holds exactly in integer
counts, which the field can verify against its retained trajectory.

Randomness comes from counter-based Philox streams keyed by
(master seed, stream index): streams with distinct indices are independent
and every draw replays identically, so a trial can be reproduced bit-exactly
from its (seed, index) pair alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceeded,
    InvariantViolation,
    NotReached,
    RangeError,
    TrajectoryNotRetained,
)
from .graphs import WeightedGraph
from .resistance import ResistanceMatrix, _as_vertex_array

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """One replayable random stream: Philox keyed by (seed, index).

    The Philox generator is counter-based, so the (seed, index) key pins the
    entire stream; the internal counter advances as numbers are drawn.
    """

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.index & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def spawn(self, index: int) -> "RngStream":
        return RngStream(self.seed, index)


class _Walker:
    """Precomputed stepping tables for one graph."""

    def __init__(self, g: WeightedGraph):
        adj, adj_w = g.adjacency()
        self.n = g.n
        self.nbrs = [list(a) for a in adj]
        self.uniform = g.uniform_weights()
        if self.uniform:
            self.deg = [len(a) for a in adj]
        else:
            self.cums = []
            for ws in adj_w:
                c = np.cumsum(ws, dtype=float)
                c /= c[-1]
                self.cums.append(list(c))

    def step(self, cur: int, u: float) -> int:
        if self.uniform:
            return self.nbrs[cur][int(u * self.deg[cur])]
        row = self.cums[cur]
        k = bisect_right(row, u)
        if k >= len(row):
            k = len(row) - 1
        return self.nbrs[cur][k]


_WALKER_ATTR = "_walker_cache"


def _walker(g: WeightedGraph) -> _Walker:
    w = getattr(g, _WALKER_ATTR, None)
    if w is None:
        w = _Walker(g)
        setattr(g, _WALKER_ATTR, w)
    return w


@dataclass(eq=False)
class LocalTimeField:
    """Visit counts of one trajectory together with the time horizon.

    counts[x] is the number of visits to x at times 0..t-1; the local time
    is counts[x] / mu_x.  The trajectory (length t+1, including X_t) is
    retained unless the producer was asked not to.
    """

    counts: np.ndarray
    t: int
    graph: WeightedGraph
    trajectory: np.ndarray | None = None

    @property
    def uncovered(self) -> int:
        """Vertices with zero local time at the horizon."""
        return int(np.count_nonzero(self.counts == 0))

    def local_times(self) -> np.ndarray:
        return self.counts / self.graph.mu

    def local_time(self, x: int) -> float:
        self.graph.check_vertex(x)
        return float(self.counts[x] / self.graph.mu[x])

    def verify_counts(self) -> None:
        """Exact integer check of counts against the retained trajectory."""
        if self.trajectory is None:
            raise TrajectoryNotRetained("field was built without its trajectory")
        ref = np.bincount(self.trajectory[: self.t], minlength=self.graph.n)
        if not np.array_equal(ref, self.counts):
            raise InvariantViolation("visit counts disagree with the trajectory")


def run_walk(
    g: WeightedGraph,
    start: int,
    steps: int,
    rng: RngStream,
    retain_trajectory: bool = True,
) -> LocalTimeField:
    """Simulate `steps` transitions of the walk started at `start`."""
    g.check_vertex(start)
    if steps < 0:
        raise RangeError(f"steps must be nonnegative, got {steps}")
    walker = _walker(g)
    u = rng.generator().random(steps)
    traj = np.empty(steps + 1, dtype=np.int64)
    traj[0] = start
    cur = int(start)
    step = walker.step
    for t in range(steps):
        cur = step(cur, u[t])
        traj[t + 1] = cur
    counts = np.bincount(traj[:steps], minlength=g.n).astype(np.int64)
    return LocalTimeField(
        counts=counts,
        t=steps,
        graph=g,
        trajectory=traj if retain_trajectory else None,
    )


def occupation_integral(field: LocalTimeField, f) -> float:
    """sum_x f(x) L_t(x) mu_x, checked against sum_{j<t} f(X_j).

    The two sides agree exactly in integer counts; in floating point a
    relative discrepancy above 1e-9 raises InvariantViolation.
    """
    if field.trajectory is None:
        raise TrajectoryNotRetained("occupation integral needs the trajectory")
    g = field.graph
    vals = _as_vertex_array(g, f)
    lhs = float(vals @ (field.local_times() * g.mu))
    rhs = float(vals[field.trajectory[: field.t]].sum())
    tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) > tol:
        raise InvariantViolation(
            f"occupation identity violated: field side {lhs!r}, trajectory side {rhs!r}"
        )
    return lhs


def inverse_local_time(traj, x: int, i: int):
    """Time of the i-th visit to x (0-indexed), so tau_x(0) = 0 when the
    walk starts at x.  Raises NotReached when the trajectory is too short."""
    if isinstance(traj, LocalTimeField):
        if traj.trajectory is None:
            raise TrajectoryNotRetained("field was built without its trajectory")
        traj = traj.trajectory
    arr = np.asarray(traj)
    if i < 0:
        raise RangeError("visit index must be nonnegative")
    visits = np.flatnonzero(arr == x)
    if len(visits) <= i:
        raise NotReached(f"only {len(visits)} visits to {x} in {len(arr) - 1} steps")
    return int(visits[i])


@dataclass(frozen=True)
class CoverTimeSample:
    """One sampled cover time: tau_cov is the first t with {X_0..X_t} = V,
    tau_cov_tilde the first t with every local time positive."""

    tau_cov: int
    tau_cov_tilde: int
    start: int
    seed: int
    stream: int


def cover_time(g: WeightedGraph, start: int, rng: RngStream, cap: int) -> CoverTimeSample:
    """Walk until every vertex has been hit, or raise CapExceeded at `cap`.

    tau_cov_tilde = tau_cov + 1 holds by the local-time convention (the last
    vertex hit at time t enters the counts at time t + 1); replaying the
    stream through run_walk reproduces the same trajectory for validation.
    """
    g.check_vertex(start)
    if cap < 1:
        raise RangeError("cap must be positive")
    walker = _walker(g)
    gen = rng.generator()
    visited = bytearray(g.n)
    visited[start] = 1
    uncovered = g.n - 1
    cur = int(start)
    step = walker.step
    t = 0
    block = ()
    bi = 0
    while uncovered:
        if bi == len(block):
            block = gen.random(65536)
            bi = 0
        if t >= cap:
            raise CapExceeded(
                f"not covered within {cap} steps ({uncovered} vertices left)",
                cap=cap,
                uncovered=uncovered,
            )
        cur = step(cur, block[bi])
        bi += 1
        t += 1
        if not visited[cur]:
            visited[cur] = 1
            uncovered -= 1
    return CoverTimeSample(
        tau_cov=t,
        tau_cov_tilde=t + 1,
        start=int(start),
        seed=rng.seed,
        stream=rng.index,
    )


def max_scaled_difference_statistic(
    g: WeightedGraph,
    inv_den: np.ndarray,
    scale: float,
    start: int,
    steps: int,
    rng: RngStream,
    validate_every: int = 0,
) -> float:
    """Running max over 0 <= t <= steps and vertex pairs of
    scale * |L_t(x) - L_t(y)| * inv_den[x, y].

    inv_den carries the reciprocal pair gauge with zeros on the diagonal
    (and on any pair meant to be excluded).  When L_t increments at vertex v
    only pairs {v} x V can raise the maximum, so each step recomputes one
    row; with validate_every = k > 0 the running value is checked against a
    full O(n^2) recomputation every k steps.
    """
    g.check_vertex(start)
    if steps < 0:
        raise RangeError("steps must be nonnegative")
    walker = _walker(g)
    u = rng.generator().random(steps)
    inv_mu = 1.0 / g.mu
    lt = np.zeros(g.n)
    buf = np.empty(g.n)
    best = 0.0
    cur = int(start)
    step = walker.step
    for t in range(steps):
        nxt = step(cur, u[t])
        lt[cur] += inv_mu[cur]
        np.subtract(lt, lt[cur], out=buf)
        np.abs(buf, out=buf)
        buf *= inv_den[cur]
        cand = buf.max()
        if cand > best:
            best = cand
        if validate_every and (t + 1) % validate_every == 0:
            _validate_running_max(lt, inv_den, scale, best, t + 1)
        cur = nxt
    return float(scale * best)


def _validate_running_max(lt, inv_den, scale, best, t):
    diff = np.abs(lt[:, None] - lt[None, :]) * inv_den
    full = diff.max()
    if full > best * (1 + 1e-12) + 1e-15:
        raise InvariantViolation(
            f"running max {scale * best!r} fell behind full recomputation "
            f"{scale * full!r} at step {t}"
        )


def sqrt_gauge_reciprocal(R: ResistanceMatrix) -> np.ndarray:
    """1 / sqrt(Rt) off the diagonal, zero on it."""
    n = R.matrix.shape[0]
    Rt = R.matrix / R.r_diam
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((n, n))
    out[off] = 1.0 / np.sqrt(Rt[off])
    return out


@dataclass(frozen=True)
class TruncatedModulusTrial:
    statistic: float
    saturated: bool   # every vertex reached the truncation level
    steps_run: int


def truncated_modulus_trial(
    g: WeightedGraph,
    R: ResistanceMatrix,
    start: int,
    L_trunc: float,
    steps: int,
    rng: RngStream,
    inv_den: np.ndarray | None = None,
    validate_every: int = 0,
) -> TruncatedModulusTrial:
    """One sample of max over t and pairs of
    |L ^ (L_t(x)/r) - L ^ (L_t(y)/r)| / sqrt(Rt), with a ^ b = min(a, b).

    Once every vertex's truncated local time sits at L the statistic can
    never change again, so the trial stops there; `saturated` records
    whether that happened within the step budget (if not, the returned
    value is a valid lower bound for the untruncated-horizon statistic)."""
    g.check_vertex(start)
    if L_trunc < 1:
        raise RangeError("truncation level must be >= 1")
    if steps < 0:
        raise RangeError("steps must be nonnegative")
    if inv_den is None:
        inv_den = sqrt_gauge_reciprocal(R)
    walker = _walker(g)
    gen = rng.generator()
    inv_mu_r = 1.0 / (g.mu * R.r_diam)
    tvals = np.zeros(g.n)
    buf = np.empty(g.n)
    lt_r = np.zeros(g.n)  # L_t / r per vertex
    unsaturated = g.n
    best = 0.0
    cur = int(start)
    step = walker.step
    t = 0
    block = ()
    bi = 0
    while t < steps and unsaturated:
        if bi == len(block):
            block = gen.random(min(65536, max(1, steps - t)))
            bi = 0
        nxt = step(cur, block[bi])
        bi += 1
        v = cur
        if tvals[v] < L_trunc:
            lt_r[v] += inv_mu_r[v]
            newval = lt_r[v] if lt_r[v] < L_trunc else L_trunc
            tvals[v] = newval
            if newval >= L_trunc:
                unsaturated -= 1
            np.subtract(tvals, newval, out=buf)
            np.abs(buf, out=buf)
            buf *= inv_den[v]
            cand = buf.max()
            if cand > best:
                best = cand
        t += 1
        if validate_every and t % validate_every == 0:
            _validate_running_max(tvals, inv_den, 1.0, best, t)
        cur = nxt
    return TruncatedModulusTrial(statistic=float(best), saturated=unsaturated == 0, steps_run=t)

