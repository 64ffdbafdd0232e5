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

Every walk runs through `walk_group`: a group of trials, each from its own
start vertex on its own stream, steps together in lockstep, each numpy
operation covering the whole group.  The trial plan hands it groups of up
to GROUP_WIDTH trials, which may span several start vertices.  Each trial
reads its stream in blocks of 256 that double, and one block of the group
holds at most GROUP_BLOCK uniforms.  On uniform weights with few distinct
degrees each block's uniforms are read once as exact digits, and the walks
go several steps per gather through a jump table (see `_Walker`); other
graphs take one step per gather.  The same loop tracks visit counts or
cover times, and drops each trial as it covers.

The running pairwise max of thm-a and thm-b changes only at a fresh visit,
one that moves the walk's truncated local time V: a visit to a vertex
already at the truncation level is stale.  Vertex v takes K_v fresh visits
to reach the level, so a walk saturates at its F = sum_v K_v-th fresh
visit.  Each block marks the fresh visits of every walk at once and queues
them as the walk's events, 0, 1, 2, ...; the kernel then steps the event
index across the group in lockstep, each numpy operation covering every
walk.  Without a level every visit is an event.  A saturated walk leaves
the group at the end of its block, as a covered one does, so the draws do
not depend on how the events are stepped.

The per-trial kernels `run_walk` and `cover_time` are groups of one.

Opening a stream resets a Philox bit generator that an earlier group handed
back, when there is one, rather than building a new one; the reset restores
the whole state from a template in which only the key changes, so the draws
are those of a fresh generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvariantViolation, RangeError
from .graphs import WeightedGraph, _rows

_MASK64 = (1 << 64) - 1
GROUP_BLOCK = 1 << 16  # most uniforms one group draws in one block, over all its walks
GROUP_WIDTH = 1024  # most trials the trial plan steps in one group
TABLE_ENTRIES = 1 << 16  # most entries of a uniform graph's jump table over several steps
MOST_DIGITS = 32  # most digits a uniform graph's stepping tables read

# Plain Philox generators that walk_group opened and has finished with;
# RngStream.generator reuses them.
_free_generators: list[np.random.Generator] = []
# A fresh Philox generator's state but for its "state" entry (the zero
# counter and the key), which each open fills in; the state setter reads
# each word by index, so plain tuples of ints are cheaper than arrays.
_PHILOX_RESET = {
    "bit_generator": "Philox",
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


@dataclass(frozen=True)
class RngStream:
    """One replayable random stream: Philox keyed by (seed, index).

    The Philox generator is counter-based, so the (seed, index) key pins the
    entire stream; the internal counter advances as numbers are drawn.
    """

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64, self.index & _MASK64)
        try:
            gen = _free_generators.pop()
        except IndexError:
            return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        gen.bit_generator.state = {**_PHILOX_RESET, "state": {"counter": (0, 0, 0, 0), "key": key}}
        return gen


def _recycle(gens) -> None:
    """Hand the plain Philox generators among `gens` back for reuse; any
    other object (a wrapper, another bit generator) is left alone."""
    _free_generators.extend(
        gen for gen in gens
        if type(gen) is np.random.Generator and type(gen.bit_generator) is np.random.Philox
    )


def _thresholds(degrees, most: int) -> np.ndarray | None:
    """The doubles at which int(u * d) steps for some d in `degrees`, sorted:
    for each 0 < j < d, the least double u whose rounded product u * d is
    at least j.  None once there are more than `most` of them."""
    thr = set()
    for d in degrees:
        for j in range(1, d):
            u = j / d
            while u * d >= j:
                u = math.nextafter(u, 0.0)
            while u * d < j:
                u = math.nextafter(u, 1.0)
            thr.add(u)
        if len(thr) > most:
            return None
    return np.array(sorted(thr))


def _neighbour_table(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(nbr, deg): row v of the n x max-degree table nbr lists v's deg[v]
    neighbours in ascending order, padded with v."""
    start, adj, _ = _rows(g)
    deg = np.diff(start)
    nbr = np.repeat(np.arange(g.n, dtype=np.int64)[:, None], int(deg.max()), axis=1)
    v = np.repeat(np.arange(g.n), deg)
    nbr[v, np.arange(len(adj)) - start[v]] = adj
    return nbr, deg


class _Walker:
    """Stepping tables for one graph.

    Row v of `nbr` (`_neighbour_table`) lists v's neighbours in ascending
    order, padded with v.  Weighted graphs step from v to
    nbr[v, #{cums[v] <= u}], where cums[v] holds v's normalised cumulative
    edge weights (ending in exactly 1.0 > u) padded with 2.0, which is
    bisect_right on the row.

    Uniform graphs step from v to nbr[v, int(u * deg[v])], and int(u * d)
    changes only at the exact doubles `thr`, taken over every degree d of
    the graph.  So each uniform is read once as a digit q = #{thr <= u} in
    0 .. Q - 1, and the walks step through two tables: step[v * Q + q] is
    the next vertex, and jump[v * Q**r + c] is the vertex r steps on, times
    Q**r, where c holds the digits of those r steps in base Q (the first
    step most significant).  r is the most steps whose table has at most
    TABLE_ENTRIES entries, and at least 1.  Reading the digits costs Q - 1
    passes over the uniforms and `step` holds n Q entries, so a graph with
    more than MOST_DIGITS digits (many distinct degrees) keeps no tables
    and takes one step per gather of int(u * deg[v]) instead, on the flat
    offsets s = v * width of `nbr_at` (the rows of nbr, times width) and
    `deg_at` (v's degree at each of its offsets).
    """

    def __init__(self, g: WeightedGraph):
        nbr, deg = _neighbour_table(g)
        n, width = nbr.shape
        self.jump = self.cums = None
        if not g.uniform_weights():
            start, _, adj_w = _rows(g)
            self.nbr, self.cums = nbr, np.full((n, width), 2.0)
            for v in range(n):
                c = np.cumsum(adj_w[start[v] : start[v + 1]])
                self.cums[v, : len(c)] = c / c[-1]
            return
        self.thr = _thresholds(np.unique(deg).tolist(), MOST_DIGITS - 1)
        if self.thr is None:
            # walk on flat offsets s = v * width: one 1-D gather per table
            self.width, self.nbr_at = width, (nbr * width).ravel()
            self.deg_at = np.repeat(deg.astype(float), width)
            return
        self.Q = Q = len(self.thr) + 1
        u_at = np.concatenate(([0.0], self.thr))  # a uniform of each digit
        step = nbr[np.arange(n)[:, None], (u_at * deg[:, None]).astype(np.int64)]
        r = 1
        while 1 < Q and n * Q ** (r + 1) <= TABLE_ENTRIES:
            r += 1
        to = np.arange(n)[:, None]
        for _ in range(r):
            to = step[to].reshape(n, -1)
        self.r, self.step, self.jump = r, step.ravel(), (to * Q**r).ravel()

    def digits(self, u: np.ndarray) -> np.ndarray:
        """What `paths` reads of the uniforms u[i, j], walk i's for its step
        j + 1: the digits q[j, i] when there are tables, else u.T."""
        if self.jump is None:
            return u.T
        q = np.zeros(u.shape, dtype=np.uint8)  # Q <= MOST_DIGITS <= 256
        hit = np.empty(u.shape, dtype=bool)
        for x in self.thr:
            np.add(q, np.greater_equal(u, x, out=hit), out=q)
        return np.ascontiguousarray(q.T)

    def paths(self, cur: np.ndarray, q: np.ndarray) -> np.ndarray:
        """X_0 .. X_k of the walks from X_0 = cur, one column each, from the
        `digits` q[j] of their steps j + 1.  Shape [k + 1, B]."""
        k, B = q.shape
        out = np.empty((k + 1, B), dtype=np.int64)
        out[0] = cur
        if self.cums is not None:
            nbr, cums = self.nbr, self.cums
            for j, x in enumerate(q, 1):
                cur = out[j] = nbr[cur, np.count_nonzero(cums[cur] <= x[:, None], axis=1)]
            return out
        if self.jump is None:  # too many digits for tables
            nbr_at, deg_at, width = self.nbr_at, self.deg_at, self.width
            s = out[0] = cur * width
            for x, nxt in zip(q, out[1:]):
                at = (x * deg_at[s]).astype(np.int64)
                s = nbr_at.take(np.add(at, s, out=at), out=nxt)
            out //= width
            return out
        Q, r, step = self.Q, self.r, self.step
        m = k // r
        # every r-th row by the jump table, on offsets X * Q**r
        digs = q[: m * r].reshape(m, r, B)
        c = digs[:, 0].astype(np.int64)
        for j in range(1, r):
            c *= Q
            c += digs[:, j]
        at = out[: m * r + 1 : r]
        s = at[0]
        s *= Q**r
        for x, row in zip(c, at[1:]):
            # in range by construction; mode "raise" would buffer `out`
            s = self.jump.take(s + x, out=row, mode="clip")
        del c
        at //= Q**r
        # the rows between them, each over the whole block, then the rest
        for j in range(1, r):
            out[j : m * r : r] = step.take(out[j - 1 : m * r : r] * Q + q[j - 1 : m * r : r])
        for t in range(m * r, k):
            out[t + 1] = step.take(out[t] * Q + q[t])
        return out


class _Group:
    """Walks from the start vertices `start` (one per walk), one stream
    each, stepped in lockstep.

    `live` holds the group indices of the walks still running.  A consumer
    of `blocks` drops walks by shrinking `live`; the next block steps only
    the walks left.  Every live walk has run the same number of steps, so a
    block is one rectangular draw.
    """

    def __init__(self, g: WeightedGraph, start: np.ndarray, rngs, limit: int):
        self.walker = g._derived("walker", lambda: _Walker(g))
        self.gens = [rng.generator() for rng in rngs]
        self.live = np.arange(len(self.gens))
        self.cur = start.copy()
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
            # one row of uniforms per walk; numpy checks a tuple size
            # against `out` faster than an int
            u = np.empty((len(live), k))
            for row, i in zip(u, live.tolist()):  # Python ints index the list fastest
                self.gens[i].random((k,), out=row)
            q = self.walker.digits(u)
            del u, row  # free the uniforms before the path is allocated
            path = self.walker.paths(self.cur[live], q)
            del q  # only `path` stays alive while the consumer runs
            self.cur[live] = path[-1]
            yield t, path
            del path  # let the consumer free it before the next block is drawn
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
    start,
    rngs,
    limit: int,
    *,
    inv_den: np.ndarray | None = None,
    inc: np.ndarray | None = None,
    level: float = np.inf,
    cover: bool = False,
    marks=None,
    record: bool = False,
    validate_every: int = 0,
) -> GroupWalk:
    """Walk one trial per stream of `rngs`, all in lockstep, for at most
    `limit` steps.  `start` is one vertex for every trial, or an array with
    trial i's start vertex at [i].  What is tracked depends on the arguments:

    - inv_den: the running max over t and vertex pairs of
      |V_t(x) - V_t(y)| * inv_den[x, y], where the visit X_t adds
      inc[X_t] (default 1/mu) to V(X_t) and V stops at `level`.  When V
      increments at v only pairs {v} x V can raise the max, so each fresh
      visit (one that moves V) computes one row per trial; stale visits
      are skipped.  A trial stops (saturated) once every vertex sits at
      `level`.  With validate_every = k > 0 the running value is checked
      against a full O(n^2) recomputation after every k-th fresh visit of
      each trial (every k-th step when `level` is infinite).
    - cover: walk until every vertex has been hit; steps is tau_cov for the
      trials that cover and `limit` for the rest.
    - otherwise: visit counts at each of the sorted `marks` (default
      [limit]), and the trajectories when `record` is set.
    """
    rngs = list(rngs)
    start = _start_array(g, start, len(rngs))
    limit = int(limit)
    if limit < 0:
        raise RangeError(f"steps must be nonnegative, got {limit}")
    if inv_den is not None:
        inv_den = np.asarray(inv_den, dtype=float)
        if inv_den.shape != (g.n, g.n):
            raise RangeError(f"inv_den must have shape {(g.n, g.n)}, got {inv_den.shape}")
        if not level > 0:
            raise RangeError("level must be positive")
        inc = 1.0 / g.mu if inc is None else np.asarray(inc, dtype=float)
        if inc.shape != (g.n,) or not (np.isfinite(inc).all() and inc.min() >= 0):
            raise RangeError(f"inc must hold {g.n} finite nonnegative increments")
    elif not cover:
        marks = [limit] if marks is None else [int(m) for m in marks]
        if any(b < a for a, b in zip([0, *marks], [*marks, limit])):
            raise RangeError(f"marks must be sorted within [0, {limit}], got {marks}")
    grp = _Group(g, start, rngs, limit)
    try:
        if inv_den is not None:
            return _running_max(grp, g.n, inc, level, inv_den, validate_every)
        if cover:
            return _cover(grp, g.n, start)
        return _counts(grp, g.n, marks, record)
    finally:
        _recycle(grp.gens)


def _start_array(g: WeightedGraph, start, B: int) -> np.ndarray:
    """The start vertex of each of the B trials, checked against g."""
    if np.ndim(start) == 0:
        g.check_vertex(start)
        return np.full(B, start, dtype=np.int64)
    arr = np.asarray(start)
    if arr.shape != (B,):
        raise RangeError(f"start must be one vertex or {B} of them, got shape {arr.shape}")
    if B and not (np.issubdtype(arr.dtype, np.integer) and 0 <= arr.min() and arr.max() < g.n):
        raise RangeError(f"start vertices must be integers in 0..{g.n - 1}")
    return arr.astype(np.int64)


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
        del path  # free the block before the next one is drawn
    return GroupWalk(
        steps=np.full(B, grp.limit), stopped=np.zeros(B, dtype=bool), counts=snaps, paths=paths
    )


def _cover(grp: _Group, n: int, start: np.ndarray) -> GroupWalk:
    B = len(grp.live)
    visited = np.zeros((B, n), dtype=bool)
    visited[np.arange(B), start] = True
    steps = np.full(B, grp.limit)
    covered = np.zeros(B, dtype=bool)
    for t, path in grp.blocks():
        live = grp.live
        walk = path[1:]  # X_{t+1} .. X_{t+k}
        before = visited[live]
        seen = before.copy()
        seen[np.arange(len(live)), walk] = True
        visited[live] = seen
        done = np.flatnonzero(seen.all(axis=1))
        if len(done):
            steps[live[done]] = t + _last_first_visits(walk[:, done], before[done]) + 1
            covered[live[done]] = True
            grp.live = np.delete(live, done)
        del path, walk, before, seen  # free the block before the next one is drawn
    return GroupWalk(steps=steps, stopped=covered, uncovered=n - visited.sum(axis=1))


def _last_first_visits(walk, before):
    """For each column i of walk[j, i], the latest j at which it first visits
    a vertex v that before[i, v] leaves open, when it visits them all.  One
    scatter-min of the visit times over the (column, vertex) pairs finds
    every first visit at once; `walk` is overwritten with those pairs."""
    k, D = walk.shape
    n = before.shape[1]
    walk += np.arange(0, D * n, n)  # the (column, vertex) pair of each visit
    first = np.full(D * n, k)
    np.minimum.at(first, walk, np.arange(k)[:, None])
    first = first.reshape(D, n)
    first[before] = -1
    return first.max(axis=1)


def _running_max(grp: _Group, n, inc, level, inv_den, validate_every) -> GroupWalk:
    """The running max, stepped over each walk's fresh visits (its events).

    Event e of walk i is its e-th visit that moves V; a stale visit (to a
    vertex already at `level`) changes nothing and its candidate never
    counts, so it is dropped before the kernel runs.  The kernel steps event
    index e across the whole group; after each block it takes the events
    that every walk still walking already has, and the rest wait in
    `pending`.  Walk i saturates at its F-th event, F = sum K_v.
    """
    B = len(grp.live)
    V = np.zeros((n, B))  # V[:, i] belongs to walk i
    best = np.zeros(B)
    steps = np.full(B, grp.limit)
    gauge = inv_den.T.copy()  # gauge[:, v] = inv_den[v], a column per walk
    flat, diff, col = V.reshape(-1), np.empty(V.shape), np.arange(B)
    gv = np.empty(V.shape)  # gauge[:, v] gathered C-ordered, as diff is
    capped = level < np.inf
    vmax = np.maximum.reduce

    def consume(rows, e, counts=None):
        """Apply events e, e + 1, ...: rows[r, i] is the vertex of walk i's
        event e + r, which walk i has only if e + r < counts[i] (every walk
        has it when counts is None)."""
        mask, cols = True, range(B)
        for v in rows:
            v = v.astype(np.intp, copy=False)
            at = v * B + col
            x = flat[at]
            x += inc[v]
            if capped:
                np.minimum(x, level, out=x)
            if counts is None:
                flat[at] = x
            else:
                mask = counts > e
                cols = np.flatnonzero(mask)
                flat[at[cols]] = x[cols]
            np.subtract(V, x, out=diff)
            np.absolute(diff, out=diff)
            np.multiply(diff, gauge.take(v, axis=1, out=gv, mode="clip"), out=diff)
            np.fmax(best, vmax(diff), out=best, where=mask)
            e += 1
            if validate_every and e % validate_every == 0:
                for i in cols:
                    _validate_running_max(V[:, i], inv_den, best[i], e)

    if not capped:  # every visit moves V, so a block's visits are its events
        done = 0
        for _, path in grp.blocks():
            consume(path[:-1], done)
            done += len(path) - 1
            del path
        return GroupWalk(steps=steps, stopped=np.zeros(B, dtype=bool), statistic=best)

    K = _fresh_counts(inc, level, grp.limit + 1)
    F = int(K.sum())  # a walk with K_v capped at limit + 1 cannot saturate
    left = np.tile(K.astype(np.int32 if grp.limit < 2**31 - 1 else np.int64), (B, 1))
    events = np.zeros(B, dtype=np.int64)  # fresh visits found so far, per walk
    done = 0  # events consumed, the same for every walk
    pending = np.zeros((B, 0), dtype=np.min_scalar_type(n - 1))  # [i, r]: event done + r of walk i
    for t, path in grp.blocks():
        live = grp.live
        fresh = _fresh_visits(path[:-1], left, live)  # fresh[i, j]: X_{t+j} of walk live[i]
        new = np.count_nonzero(fresh, axis=1)
        first = events[live] - done  # slot of each live walk's first new event
        events[live] += new
        buf = np.zeros((B, int(events.max()) - done), dtype=pending.dtype)
        buf[:, : pending.shape[1]] = pending
        r = np.arange(buf.shape[1])
        slot = np.zeros(buf.shape, dtype=bool)
        slot[live] = (first[:, None] <= r) & (r < (first + new)[:, None])
        ids = np.ascontiguousarray(path[:-1].T, dtype=buf.dtype)
        buf[slot] = np.compress(fresh.ravel(), ids)  # by walk, then in time order
        sat = np.flatnonzero(events[live] == F)
        if len(sat):
            steps[live[sat]] = t + fresh.shape[1] - np.argmax(fresh[sat, ::-1], axis=1)
            grp.live = np.delete(live, sat)
        stop = int(events[grp.live].min()) - done if len(grp.live) else 0
        consume(buf[:, :stop].T, done)
        done += stop
        pending = buf[:, stop:].copy()
        del path, fresh, buf, slot, ids
    censored = events < done + pending.shape[1]  # only walks cut at the limit have fewer
    consume(pending.T, done, events if censored.any() else None)
    return GroupWalk(steps=steps, stopped=events == F, statistic=best)


def _fresh_counts(inc, level, cap):
    """K[v]: the visits to v that move V(v) before it reaches `level`, found
    by replaying the kernel's own float ops x = min(x + inc[v], level).  A
    count is at most `cap`, which also stands for a V that never reaches
    `level` (inc[v] = 0)."""
    K = np.full(len(inc), cap, dtype=np.int64)
    x, v, k = np.zeros(len(inc)), np.arange(len(inc)), 0
    while len(v) and k < cap:
        k += 1
        y = np.minimum(x + inc[v], level)
        K[v[y >= level]] = k
        moving = (y < level) & (y > x)
        x, v = y[moving], v[moving]
    return K


def _fresh_visits(visits, left, live):
    """fresh[i, j]: whether the visit visits[j, i] of walk live[i] moves V,
    where left[w, v] counts the visits to v that still move V for walk w;
    the block's fresh visits are taken off `left`.

    A (walk, vertex) pair is stale (nothing left), all fresh (no more
    visits in the block than left) or crossing; for a crossing pair the
    last fresh visit is its left-th visit in the block, read from one sort
    of the crossing visits by (pair, time).  `visits` is offset in place
    while this runs and restored before it returns.
    """
    k, b = visits.shape
    n = left.shape[1]
    offs = np.arange(0, b * n, n)
    visits += offs  # (walk, vertex) pair of each visit, flat over [b, n]
    c = np.bincount(visits.ravel(), minlength=b * n)
    rem = left[live].ravel()
    # until[pair]: the pair's visits at block times below it are fresh
    until = np.where(c <= rem, k, 0).astype(np.min_scalar_type(k))
    cross = (c > rem) & (rem > 0)
    if cross.any():
        hit = cross[visits].ravel()
        s = k.bit_length()
        visits <<= s
        visits += np.arange(k)[:, None]  # (pair, time) keys, in place
        key = np.compress(hit, visits.ravel())
        visits >>= s
        key = key.astype(np.int32) if b * n << s < 2**31 else key
        key.sort()
        p = np.flatnonzero(cross)
        cc = np.where(cross, c, 0)
        until[p] = key[(np.cumsum(cc) - cc)[p] + rem[p] - 1] - (p << s) + 1
    left[live] = np.maximum(rem - c, 0).reshape(b, n)
    fresh = np.ascontiguousarray(until[visits.T] > np.arange(k))
    visits -= offs
    return fresh


def _validate_running_max(lt, inv_den, best, e):
    diff = np.abs(lt[:, None] - lt[None, :]) * inv_den
    full = diff.max()
    if full > best * (1 + 1e-12) + 1e-15:
        raise InvariantViolation(
            f"running max {best!r} fell behind full recomputation {full!r} at event {e}"
        )


@dataclass(eq=False)
class LocalTimeField:
    """Visit counts of one trajectory together with the time horizon.

    counts[x] is the number of visits to x at times 0..t-1; the local time
    is counts[x] / mu_x.  `trajectory` is X_0 .. X_t (length t+1).
    """

    counts: np.ndarray
    t: int
    graph: WeightedGraph
    trajectory: np.ndarray

    def local_times(self) -> np.ndarray:
        return self.counts / self.graph.mu

    def verify_counts(self) -> None:
        """Exact integer check of counts against the trajectory."""
        ref = np.bincount(self.trajectory[: self.t], minlength=self.graph.n)
        if not np.array_equal(ref, self.counts):
            raise InvariantViolation("visit counts disagree with the trajectory")


def run_walk(g: WeightedGraph, start: int, steps: int, rng: RngStream) -> LocalTimeField:
    """Simulate `steps` transitions of the walk started at `start`."""
    w = walk_group(g, start, [rng], steps, record=True)
    return LocalTimeField(counts=w.counts[0, 0], t=steps, graph=g, trajectory=w.paths[0])


@dataclass(frozen=True)
class CoverTimeSample:
    """One sampled cover time: tau_cov is the first t with {X_0..X_t} = V,
    tau_cov_tilde the first t with every local time positive."""

    tau_cov: int
    tau_cov_tilde: int


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
    return CoverTimeSample(tau_cov=t, tau_cov_tilde=t + 1)
