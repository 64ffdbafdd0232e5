"""Scalar reference walk kernels: one trial at a time, one Python step at a
time.  They are the oracle the lockstep group kernel `walk_sim.walk_group`
is checked against, bit for bit.

Each trial reads its own stream in blocks of 256 doubling up to 65,536 (the
walks of `run_trajectory` in one draw); Philox values do not depend on the
chunking, so every block policy sees the same uniforms.
"""

from bisect import bisect_right

import numpy as np

from graph_oracle import adjacency


def uniform_blocks(gen, limit):
    """`limit` uniforms from `gen` in blocks of 256, 512, ... up to 65,536."""
    size = 256
    while limit > 0:
        k = min(size, limit)
        yield gen.random(k)
        limit -= k
        size = min(2 * size, 65536)


class ScalarWalker:
    """Stepping tables as Python lists for one graph."""

    def __init__(self, g):
        adj, adj_w = adjacency(g)
        self.nbrs = [list(a) for a in adj]
        self.uniform = g.uniform_weights()
        if self.uniform:
            self.deg = [len(a) for a in adj]
        else:
            cums = [np.cumsum(ws, dtype=float) for ws in adj_w]
            self.cums = [(c / c[-1]).tolist() for c in cums]

    def path(self, cur, u):
        """X_1 .. X_len(u) of the walk from X_0 = cur, one uniform per step."""
        nbrs = self.nbrs
        if self.uniform:
            deg = self.deg
            return [cur := nbrs[cur][int(x * deg[cur])] for x in u.tolist()]
        cums = self.cums
        return [cur := nbrs[cur][bisect_right(cums[cur], x)] for x in u.tolist()]


def run_trajectory(g, start, steps, rng):
    """X_0 .. X_steps of the walk from `start` on stream `rng`."""
    u = rng.generator().random(steps)
    return np.array([start, *ScalarWalker(g).path(int(start), u)], dtype=np.int64)


def cover(g, start, rng, cap):
    """(tau_cov, vertices left uncovered): tau_cov is None when the walk does
    not cover the graph within `cap` steps."""
    path = ScalarWalker(g).path
    visited = np.zeros(g.n, dtype=bool)
    visited[start] = True
    uncovered = g.n - 1
    cur = int(start)
    t = 0
    blocks = uniform_blocks(rng.generator(), cap)
    while uncovered:
        u = next(blocks, None)
        if u is None:
            return None, uncovered
        walk = path(cur, u)
        seen, first = np.unique(walk, return_index=True)
        fresh = ~visited[seen]
        k = int(np.count_nonzero(fresh))
        if k == uncovered:
            return t + int(first[fresh].max()) + 1, 0
        visited[seen] = True
        uncovered -= k
        t += len(walk)
        cur = walk[-1]
    return t, 0


def running_max(g, inc, level, inv_den, start, steps, rng):
    """(best, steps run, vertices below level) of the running max over t and
    pairs of |V_t(x) - V_t(y)| * inv_den[x, y], where the visit X_t adds
    inc[X_t] to V(X_t) and V stops at `level`; the walk ends once every
    vertex sits at `level`."""
    path = ScalarWalker(g).path
    inc = inc.tolist()
    rows = list(inv_den)
    vals = [0.0] * g.n
    lt = np.zeros(g.n)
    buf = np.empty(g.n)
    below = g.n
    best = 0.0
    cur = int(start)
    t = 0
    for u in uniform_blocks(rng.generator(), steps):
        nxt = path(cur, u)
        for v in [cur, *nxt[:-1]]:
            t += 1
            x = vals[v]
            if x < level:
                x += inc[v]
                if x >= level:
                    x = level
                    below -= 1
                vals[v] = x
                lt[v] = x
                np.subtract(lt, x, out=buf)
                np.absolute(buf, out=buf)
                np.multiply(buf, rows[v], out=buf)
                cand = np.maximum.reduce(buf)
                if cand > best:
                    best = cand
            if not below:
                return best, t, below
        cur = nxt[-1]
    return best, t, below
