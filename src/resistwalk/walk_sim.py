"""Random walk simulation: trajectories, local times, cover times and the
running pairwise local-time statistics.

Local time convention: L_t(x) = (1/mu_x) #{ 0 <= j < t : X_j = x }, so
L_0 = 0 and the step at time t adds the visit X_{t-1}.  The occupation
identity sum_x f(x) L_t(x) mu_x = sum_{j<t} f(X_j) holds exactly in integer
counts, which the field can verify against its retained trajectory.

Randomness comes from counter-based Philox streams keyed by
(master seed, stream index): streams with distinct indices are independent
and every draw replays identically, so a trial can be reproduced bit-exactly
from its (seed, index) pair alone.  Philox output does not depend on how the
draws are chunked, which lets the trials of one group share a block policy
and still see the values of one single draw per stream.

Every walk runs through `walk_group`: the trials from one start vertex,
each on its own stream, step together in lockstep on padded neighbour
tables, each numpy operation of a time step covering the whole group.
Each trial reads its stream in blocks of 256 that double, and one block of
the group holds at most GROUP_BLOCK uniforms.  The same loop tracks visit counts,
cover times or the running pairwise max of thm-a and thm-b, and drops each
trial as it covers or saturates.  The per-trial kernels (`run_walk`,
`cover_time`, `max_scaled_difference_statistic`, `truncated_modulus_trial`)
are groups of one.
"""

from __future__ import annotations

from dataclasses import dataclass

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
GROUP_BLOCK = 1 << 16  # most uniforms one group draws in one block, over all its walks


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


class _Walker:
    """Padded stepping tables for one graph.

    Row v of `nbr` lists v's neighbours, padded with v.  Uniform graphs step
    from v to nbr[v, int(u * deg[v])]; weighted ones to nbr[v, #{cums[v] <= u}],
    where cums[v] holds v's normalised cumulative edge weights (ending in
    exactly 1.0 > u) padded with 2.0, which is bisect_right on the row.
    """

    def __init__(self, g: WeightedGraph):
        adj, adj_w = g.adjacency()
        self.width = width = max(len(a) for a in adj)
        self.nbr = np.repeat(np.arange(g.n, dtype=np.int64)[:, None], width, axis=1)
        self.uniform = g.uniform_weights()
        if not self.uniform:
            self.cums = np.full((g.n, width), 2.0)
        for v, (a, ws) in enumerate(zip(adj, adj_w)):
            self.nbr[v, : len(a)] = a
            if not self.uniform:
                c = np.cumsum(ws, dtype=float)
                self.cums[v, : len(a)] = c / c[-1]
        if self.uniform:
            # walk on flat offsets s = v * width: one 1-D gather per table
            self.nbr_at = (self.nbr * width).ravel()
            self.deg_at = np.repeat([float(len(a)) for a in adj], width)

    def paths(self, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
        """X_0 .. X_k of the walks from X_0 = cur, one column each: u[j, i]
        is the uniform walk i reads for its step j + 1.  Shape [k + 1, B]."""
        out = np.empty((len(u) + 1, len(cur)), dtype=np.int64)
        if self.uniform:
            nbr_at, deg_at = self.nbr_at, self.deg_at
            s = out[0] = cur * self.width
            for x, nxt in zip(u, out[1:]):
                at = (x * deg_at[s]).astype(np.int64)
                s = nbr_at.take(np.add(at, s, out=at), out=nxt)
            out //= self.width
        else:
            nbr, cums = self.nbr, self.cums
            out[0] = cur
            for j, x in enumerate(u, 1):
                cur = out[j] = nbr[cur, np.count_nonzero(cums[cur] <= x[:, None], axis=1)]
        return out


_WALKER_ATTR = "_walker_cache"


def _walker(g: WeightedGraph) -> _Walker:
    w = getattr(g, _WALKER_ATTR, None)
    if w is None:
        w = _Walker(g)
        setattr(g, _WALKER_ATTR, w)
    return w


class _Group:
    """Walks from one start vertex, one stream each, stepped in lockstep.

    `live` holds the group indices of the walks still running.  A consumer
    of `blocks` drops walks by shrinking `live`; the next block steps only
    the walks left.  Every live walk has run the same number of steps, so a
    block is one rectangular draw.
    """

    def __init__(self, g: WeightedGraph, start: int, rngs, limit: int):
        self.walker = _walker(g)
        self.gens = [rng.generator() for rng in rngs]
        self.live = np.arange(len(self.gens))
        self.cur = np.full(len(self.gens), start, dtype=np.int64)
        self.limit = limit

    def blocks(self):
        """Yield (t, path) per block: path[j, i] = X_{t+j} of walk live[i],
        j = 0..k.  Each live walk reads the next k uniforms of its stream.
        k starts at 256 and at most doubles from block to block, and a block
        draws at most GROUP_BLOCK uniforms over the group, so a walk that
        stops after s steps has drawn at most 2 s + 256."""
        t, k = 0, 128
        while t < self.limit and len(self.live):
            live = self.live
            k = min(2 * k, self.limit - t, max(1, GROUP_BLOCK // len(live)))
            u = np.empty((k, len(live)))
            for col, i in enumerate(live):
                u[:, col] = self.gens[i].random(k)
            path = self.walker.paths(self.cur[live], u)
            del u  # only `path` stays alive while the consumer runs
            self.cur[live] = path[-1]
            yield t, path
            t += k


@dataclass(frozen=True, eq=False)
class GroupWalk:
    """What `walk_group` returns, one entry per stream of the group.

    steps[i] is the number of steps trial i ran: the limit, or the step it
    stopped at (`stopped[i]`: saturated, or covered).  `statistic` is the
    running max, `uncovered` the vertices a cover trial left unvisited,
    counts[m, i] the visit counts of trial i over times 0 .. marks[m] - 1,
    and paths[i] its trajectory X_0 .. X_limit; each is None unless the
    call computes it.
    """

    steps: np.ndarray
    stopped: np.ndarray
    statistic: np.ndarray | None = None
    uncovered: np.ndarray | None = None
    counts: np.ndarray | None = None
    paths: np.ndarray | None = None


def walk_group(
    g: WeightedGraph,
    start: int,
    rngs,
    limit: int,
    *,
    inv_den: np.ndarray | None = None,
    inc: np.ndarray | None = None,
    level: float = np.inf,
    scale: float = 1.0,
    cover: bool = False,
    marks=None,
    record: bool = False,
    validate_every: int = 0,
) -> GroupWalk:
    """Walk one trial per stream of `rngs` from `start`, all in lockstep,
    for at most `limit` steps.  What is tracked depends on the arguments:

    - inv_den: the running max over t and vertex pairs of
      scale * |V_t(x) - V_t(y)| * inv_den[x, y], where the visit X_t adds
      inc[X_t] (default 1/mu) to V(X_t) and V stops at `level`.  When V
      increments at v only pairs {v} x V can raise the max, so each step
      computes one row per trial.  A trial stops (saturated) once every
      vertex sits at `level`.  With validate_every = k > 0 the running value
      is checked against a full O(n^2) recomputation every k steps.
    - cover: walk until every vertex has been hit; steps is tau_cov for the
      trials that cover and `limit` for the rest.
    - otherwise: visit counts at each of the sorted `marks` (default
      [limit]), and the trajectories when `record` is set.
    """
    g.check_vertex(start)
    if limit < 0:
        raise RangeError(f"steps must be nonnegative, got {limit}")
    grp = _Group(g, int(start), rngs, int(limit))
    if inv_den is not None:
        inv_den = np.asarray(inv_den, dtype=float)
        if inv_den.shape != (g.n, g.n):
            raise RangeError(f"inv_den must have shape {(g.n, g.n)}, got {inv_den.shape}")
        if not level > 0:
            raise RangeError("level must be positive")
        inc = 1.0 / g.mu if inc is None else inc
        return _running_max(grp, g.n, inc, level, inv_den, scale, validate_every)
    if cover:
        return _cover(grp, g.n, int(start))
    marks = [grp.limit] if marks is None else [int(m) for m in marks]
    if any(b < a for a, b in zip([0, *marks], [*marks, grp.limit])):
        raise RangeError(f"marks must be sorted within [0, {grp.limit}], got {marks}")
    return _counts(grp, g.n, marks, record)


def _counts(grp: _Group, n: int, marks, record: bool) -> GroupWalk:
    B = len(grp.live)
    offsets = np.arange(B) * n
    counts = np.zeros((B, n), dtype=np.int64)
    snaps = np.zeros((len(marks), B, n), dtype=np.int64)
    paths = np.empty((B, grp.limit + 1), dtype=np.int64) if record else None
    if record:
        paths[:, 0] = grp.cur

    def add(visits):
        seen = np.bincount((visits + offsets).ravel(), minlength=B * n)
        np.add(counts, seen.reshape(B, n), out=counts)

    for t, path in grp.blocks():
        k = len(path) - 1
        if record:
            paths[:, t + 1 : t + k + 1] = path[1:].T
        lo = 0
        for m, mark in enumerate(marks):
            if t < mark <= t + k:
                add(path[lo : mark - t])
                lo = mark - t
                snaps[m] = counts
        add(path[lo:k])
    return GroupWalk(
        steps=np.full(B, grp.limit), stopped=np.zeros(B, dtype=bool), counts=snaps, paths=paths
    )


def _cover(grp: _Group, n: int, start: int) -> GroupWalk:
    B = len(grp.live)
    visited = np.zeros((B, n), dtype=bool)
    visited[:, start] = True
    steps = np.full(B, grp.limit)
    covered = np.zeros(B, dtype=bool)
    for t, path in grp.blocks():
        live = grp.live
        walk = path[1:]  # X_{t+1} .. X_{t+k}
        before = visited[live]
        seen = before.copy()
        seen[np.arange(len(live)), walk] = True
        visited[live] = seen
        done = seen.all(axis=1)
        for i in np.flatnonzero(done):
            # covered at the latest first visit among the vertices still open
            vs, first = np.unique(walk[:, i], return_index=True)
            steps[live[i]] = t + int(first[~before[i, vs]].max()) + 1
        covered[live[done]] = True
        grp.live = live[~done]
    return GroupWalk(steps=steps, stopped=covered, uncovered=n - visited.sum(axis=1))


def _running_max(grp: _Group, n, inc, level, inv_den, scale, validate_every) -> GroupWalk:
    B = len(grp.live)
    stat = np.zeros(B)
    steps = np.full(B, grp.limit)
    saturated = np.zeros(B, dtype=bool)
    V = np.zeros((n, B))  # V[:, i] belongs to walk live[i]
    best = np.zeros(B)
    below = np.full(B, n)
    gauge = inv_den.T.copy()  # gauge[:, v] = inv_den[v], a column per walk
    capped = level < np.inf
    vmax = np.maximum.reduce
    for t, path in grp.blocks():
        visits = path[:-1]  # the visit X_{t+j} makes step t+j+1
        while len(visits) and len(best):
            # a saturated walk stays in the arrays, inert (its V sits at
            # `level`), until a quarter of them are saturated or the block ends
            flat, diff, fresh, ndead = V.reshape(-1), np.empty(V.shape), True, 0
            row = np.arange(len(best))
            for j, v in enumerate(visits, t + 1):
                at = v * len(best) + row
                x = flat[at]
                if capped:
                    fresh = x < level  # only visits below the level move V
                x += inc[v]
                if capped:
                    np.minimum(x, level, out=x)
                flat[at] = x
                np.subtract(V, x, out=diff)
                np.absolute(diff, out=diff)
                np.multiply(diff, gauge[:, v], out=diff)
                np.fmax(best, vmax(diff), out=best, where=fresh)
                if validate_every and j % validate_every == 0:
                    for i in range(len(best)):
                        _validate_running_max(V[:, i], inv_den, scale, best[i], j)
                if capped:
                    hit = fresh & (x >= level)
                    if np.count_nonzero(hit):
                        below -= hit
                        dead = len(below) - np.count_nonzero(below)
                        if dead > ndead:
                            steps[grp.live[hit & (below == 0)]] = j
                            ndead = dead
                            if 4 * dead > len(below):
                                break
            visits = visits[j - t :]
            t = j
            keep = below > 0
            if not keep.all():
                gone = grp.live[~keep]
                stat[gone], saturated[gone] = best[~keep], True
                grp.live = grp.live[keep]
                V = np.ascontiguousarray(V[:, keep])
                best, below, visits = best[keep], below[keep], visits[:, keep]
    stat[grp.live] = best
    return GroupWalk(steps=steps, stopped=saturated, statistic=scale * stat)


def _validate_running_max(lt, inv_den, scale, best, t):
    diff = np.abs(lt[:, None] - lt[None, :]) * inv_den
    full = diff.max()
    if full > best * (1 + 1e-12) + 1e-15:
        raise InvariantViolation(
            f"running max {scale * best!r} fell behind full recomputation "
            f"{scale * full!r} at step {t}"
        )


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
    w = walk_group(g, start, [rng], steps, record=retain_trajectory)
    return LocalTimeField(
        counts=w.counts[0, 0],
        t=steps,
        graph=g,
        trajectory=w.paths[0] if retain_trajectory else None,
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
    if cap < 1:
        raise RangeError("cap must be positive")
    w = walk_group(g, start, [rng], cap, cover=True)
    if not w.stopped[0]:
        uncovered = int(w.uncovered[0])
        raise CapExceeded(
            f"not covered within {cap} steps ({uncovered} vertices left)",
            cap=cap,
            uncovered=uncovered,
        )
    t = int(w.steps[0])
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
    (and on any pair meant to be excluded); validate_every works as in
    `walk_group`.
    """
    w = walk_group(
        g, start, [rng], steps, inv_den=inv_den, scale=scale, validate_every=validate_every
    )
    return float(w.statistic[0])


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
    if L_trunc < 1:
        raise RangeError("truncation level must be >= 1")
    if inv_den is None:
        inv_den = sqrt_gauge_reciprocal(R)
    w = walk_group(
        g, start, [rng], steps, inv_den=inv_den, inc=1.0 / (g.mu * R.r_diam), level=L_trunc,
        validate_every=validate_every,
    )
    return TruncatedModulusTrial(
        statistic=float(w.statistic[0]), saturated=bool(w.stopped[0]), steps_run=int(w.steps[0])
    )
