"""Finite weighted graphs and the self-similar families used throughout.

A weighted graph carries symmetric positive conductances on its edges.  The
vertex measure mu_x is the sum of conductances incident to x and the total
mass m(G) is the sum of mu_x over all vertices (twice the total edge weight).

Family graphs are built by iterated-function-system recursion on exact
rational coordinates (fractions.Fraction), and vertices are identified by
exact coordinate equality.  Floating point only enters when coordinates are
exported for plotting or distance computations in the plane.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptySet,
    LevelTooLarge,
    MissingCoords,
    NonpositiveWeight,
    SelfLoop,
    UnknownVertex,
)

FAMILIES = ("path", "vicsek", "gasket", "carpet", "wired_carpet")

## Levels above these caps are refused outright; the caps keep vertex counts
## at desk scale (the carpet triples its side each level, the gasket doubles).
MAX_LEVEL = {
    "path": 10**6,
    "vicsek": 6,
    "gasket": 7,
    "carpet": 3,
    "wired_carpet": 3,
}


def _jsonable(obj):
    """JSON-ready copy of nested numpy/Python values: arrays become lists,
    numpy scalars Python scalars, tuples lists and dict keys strings."""
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass(eq=False)
class WeightedGraph:
    """Connected weighted graph on dense integer vertices 0..n-1.

    edges hold one entry per unordered pair, canonically (u, v) with u < v,
    sorted lexicographically.  Instances are treated as immutable; the
    adjacency caches are built lazily on first use.
    """

    n: int
    edges: list  # [(u, v, weight)], u < v, sorted
    mu: np.ndarray
    total_mass: float
    coords: dict | None = None  # vertex -> (x, y), possibly partial
    meta: dict = field(default_factory=dict)

    _adj: list | None = field(default=None, repr=False)
    _adj_w: list | None = field(default=None, repr=False)
    _solver_cache: object = field(default=None, repr=False)

    @property
    def vertices(self):
        return range(self.n)

    @property
    def num_edges(self):
        return len(self.edges)

    def check_vertex(self, x):
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.n):
            raise UnknownVertex(f"vertex {x!r} not in 0..{self.n - 1}")

    def adjacency(self):
        """Neighbor and incident-weight lists, cached."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            adj_w = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append(v)
                adj_w[u].append(w)
                adj[v].append(u)
                adj_w[v].append(w)
            self._adj = adj
            self._adj_w = adj_w
        return self._adj, self._adj_w

    def degree(self, x):
        self.check_vertex(x)
        return len(self.adjacency()[0][x])

    def uniform_weights(self) -> bool:
        """True when every edge carries the same conductance."""
        if not self.edges:
            return True
        w0 = self.edges[0][2]
        return all(w == w0 for _, _, w in self.edges)

    def coord_array(self):
        """Vertex coordinates as an (n, 2) float array; requires full coords."""
        if self.coords is None or len(self.coords) != self.n:
            raise MissingCoords("graph does not carry coordinates for every vertex")
        out = np.empty((self.n, 2))
        for v in range(self.n):
            out[v] = self.coords[v]
        return out


def _connected(n, edges):
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def _finish_graph(n, edge_weights, coords=None, meta=None):
    """Assemble a WeightedGraph from {(u,v): w} with u < v."""
    edges = sorted((u, v, w) for (u, v), w in edge_weights.items())
    mu = np.zeros(n)
    for u, v, w in edges:
        mu[u] += w
        mu[v] += w
    if n < 2:
        raise DisconnectedGraph("a graph needs at least two vertices")
    if not _connected(n, edges):
        raise DisconnectedGraph("graph is not connected")
    return WeightedGraph(
        n=n,
        edges=edges,
        mu=mu,
        total_mass=float(mu.sum()),
        coords=coords,
        meta=meta or {},
    )


def build_graph(edge_list):
    """Build a connected weighted graph from (u, v, weight) triples.

    Vertex ids may be any integers; they are relabeled densely in sorted
    order (the original labels are kept in meta['labels'] when relabeling
    changed anything).  Parallel entries for the same pair have their
    conductances added.
    """
    ids = set()
    for u, v, w in edge_list:
        if u == v:
            raise SelfLoop(f"self loop at vertex {u!r}")
        if not (w > 0) or not math.isfinite(w):
            raise NonpositiveWeight(f"edge ({u!r}, {v!r}) has weight {w!r}")
        ids.add(u)
        ids.add(v)
    labels = sorted(ids)
    index = {lab: i for i, lab in enumerate(labels)}
    edge_weights = {}
    for u, v, w in edge_list:
        a, b = index[u], index[v]
        if a > b:
            a, b = b, a
        edge_weights[(a, b)] = edge_weights.get((a, b), 0.0) + float(w)
    meta = {}
    if labels != list(range(len(labels))):
        meta["labels"] = labels
    return _finish_graph(len(labels), edge_weights, meta=meta)


# -- families ------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Which self-similar family to build, at which level, with which weight."""

    family: str
    level: int
    weight: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownVertex(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not (self.weight > 0) or not math.isfinite(self.weight):
            raise NonpositiveWeight(f"edge weight {self.weight!r}")


def _check_level(family, level):
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise LevelTooLarge(f"level must be an integer, got {level!r}")
    if level < 0:
        raise LevelTooLarge(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL[family]:
        raise LevelTooLarge(
            f"{family} level {level} exceeds the configured cap {MAX_LEVEL[family]}"
        )


HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

## Triangular-lattice basis for the gasket: a point (a, b) sits at
## a*(1, 0) + b*(1/2, sqrt(3)/2) in the plane.  All gasket arithmetic is done
## on (a, b) pairs so that vertex identification stays exact.
_SQRT3_2 = math.sqrt(3.0) / 2.0


def _gasket_embed(p):
    a, b = p
    return (float(a) + float(b) / 2.0, float(b) * _SQRT3_2)


def _plain_embed(p):
    return (float(p[0]), float(p[1]))


def _sorted_ids(points):
    """Canonical vertex order: sort by exact coordinates."""
    pts = sorted(points)
    return pts, {p: i for i, p in enumerate(pts)}


def _gasket(level):
    ## Edges follow the cell recursion E_{i+1} = union of the three half-scale
    ## copies of E_i.  Within one cell this is the same as "pairs at Euclidean
    ## distance 2^-i", but from level 2 on the raw distance rule would also
    ## pick up pairs straddling the central hole, which do not belong to the
    ## gasket graph (and would break the exact 5/3 resistance recursion).
    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    edges = {
        tuple(sorted((corners[i], corners[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    }
    for _ in range(level):
        new = set()
        for ca, cb in corners:
            for p, q in edges:
                pi = ((p[0] + ca) * HALF, (p[1] + cb) * HALF)
                qi = ((q[0] + ca) * HALF, (q[1] + cb) * HALF)
                new.add(tuple(sorted((pi, qi))))
        edges = new
    pts = set()
    for p, q in edges:
        pts.add(p)
        pts.add(q)
    ordered, index = _sorted_ids(pts)
    edge_pairs = {tuple(sorted((index[p], index[q]))) for p, q in edges}
    coords = {index[p]: _gasket_embed(p) for p in ordered}
    corner_ids = [index[c] for c in corners]
    meta = {"corners": corner_ids}
    mids = [(HALF, Fraction(0)), (Fraction(0), HALF), (HALF, HALF)]
    if level >= 1:
        meta["side_midpoints"] = [index[p] for p in mids]
    # centroid of the outer triangle in the plane
    cx = (0.0 + 1.0 + 0.5) / 3.0
    cy = (0.0 + 0.0 + _SQRT3_2) / 3.0
    best = min(range(len(ordered)), key=lambda i: (coords[i][0] - cx) ** 2 + (coords[i][1] - cy) ** 2)
    meta["center_rep"] = best
    meta["start_reps"] = sorted(set([corner_ids[0]] + ([index[mids[0]]] if level >= 1 else []) + [best]))
    return edge_pairs, coords, meta, len(ordered)


def _vicsek(level):
    fixed = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (HALF, HALF),
    ]
    center = fixed[4]
    edges = {tuple(sorted((c, center))) for c in fixed[:4]}
    for _ in range(level):
        new = set()
        for fp in fixed:
            fa, fb = fp
            for p, q in edges:
                pi = (fa + (p[0] - fa) * THIRD, fb + (p[1] - fb) * THIRD)
                qi = (fa + (q[0] - fa) * THIRD, fb + (q[1] - fb) * THIRD)
                new.add(tuple(sorted((pi, qi))))
        edges = new
    pts = set()
    for p, q in edges:
        pts.add(p)
        pts.add(q)
    ordered, index = _sorted_ids(pts)
    edge_pairs = {tuple(sorted((index[p], index[q]))) for p, q in edges}
    coords = {index[p]: _plain_embed(p) for p in ordered}
    meta = {
        "corners": [index[c] for c in fixed[:4]],
        "center": index[center],
        "start_reps": sorted({index[fixed[0]], index[center]}),
    }
    return edge_pairs, coords, meta, len(ordered)


## Carpet cells: the eight maps fix the corners and edge midpoints of the
## unit square; in offset form, psi_a(x) = (x + a)/3 for a in {0,1,2}^2
## minus the centre cell.
_CARPET_OFFSETS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(2), Fraction(0)),
    (Fraction(2), Fraction(1)),
    (Fraction(2), Fraction(2)),
    (Fraction(1), Fraction(2)),
    (Fraction(0), Fraction(2)),
    (Fraction(0), Fraction(1)),
]


def _carpet_points(level):
    pts = {((a + HALF) * THIRD, (b + HALF) * THIRD) for a, b in _CARPET_OFFSETS}
    for _ in range(level):
        pts = {((p[0] + a) * THIRD, (p[1] + b) * THIRD) for p in pts for a, b in _CARPET_OFFSETS}
    return pts


def _carpet(level):
    pts = _carpet_points(level)
    h = Fraction(1, 3 ** (level + 1))
    ordered, index = _sorted_ids(pts)
    edge_pairs = set()
    for p in ordered:
        for q in ((p[0] + h, p[1]), (p[0], p[1] + h)):
            if q in index:
                edge_pairs.add(tuple(sorted((index[p], index[q]))))
    coords = {index[p]: _plain_embed(p) for p in ordered}
    lo, hi = h * HALF, 1 - h * HALF
    boundary = [index[p] for p in ordered if p[0] in (lo, hi) or p[1] in (lo, hi)]
    corners = [index[p] for p in ordered if p[0] in (lo, hi) and p[1] in (lo, hi)]
    meta = {"boundary": boundary, "corners": corners}
    bottom_mid = (HALF, lo)
    meta["side_midpoints"] = [index[bottom_mid]] if bottom_mid in index else []
    meta["start_reps"] = sorted(set(corners[:1] + meta["side_midpoints"]))
    return edge_pairs, coords, meta, len(ordered)


def generate(spec: FamilySpec) -> WeightedGraph:
    """Build one family graph with uniform conductance spec.weight.

    Vertex ids are dense integers in sorted coordinate order.  meta records
    the family, level, and the special vertex sets each family exposes
    (corners, boundary, start representatives).
    """
    family, level, w = spec.family, spec.level, float(spec.weight)
    _check_level(family, level)

    if family == "path":
        if level < 1:
            raise LevelTooLarge("a path needs level >= 1 (level counts edges)")
        edge_weights = {(i, i + 1): w for i in range(level)}
        coords = {i: (float(i), 0.0) for i in range(level + 1)}
        meta = {
            "family": family,
            "level": level,
            "weight": w,
            "endpoints": [0, level],
            "start_reps": [0, level // 2],
        }
        return _finish_graph(level + 1, edge_weights, coords, meta)

    if family == "gasket":
        edge_pairs, coords, meta, n = _gasket(level)
    elif family == "vicsek":
        edge_pairs, coords, meta, n = _vicsek(level)
    elif family in ("carpet", "wired_carpet"):
        edge_pairs, coords, meta, n = _carpet(level)
    else:  # pragma: no cover
        raise AssertionError(family)

    meta.update({"family": family, "level": level, "weight": w})
    edge_weights = {pair: w for pair in edge_pairs}
    g = _finish_graph(n, edge_weights, coords, meta)

    if family == "wired_carpet":
        try:
            g = wire_vertices(g, g.meta["boundary"])
        except DisconnectedGraph:
            raise LevelTooLarge(
                "wired carpet level 0 collapses to a single vertex "
                "(every level-0 cell touches the outer boundary); use level >= 1"
            )
        g.meta["family"] = "wired_carpet"
        interior = [v for v in range(g.n) if v != g.meta["wired_vertex"]]
        cx = cy = 0.5
        best = min(
            interior,
            key=lambda i: (g.coords[i][0] - cx) ** 2 + (g.coords[i][1] - cy) ** 2,
        )
        g.meta["start_reps"] = sorted({g.meta["wired_vertex"], best})
    return g


def wire_vertices(g: WeightedGraph, S) -> WeightedGraph:
    """Merge the vertex set S into a single vertex (a perfect short).

    Edges internal to S are dropped; parallel edges created by the merge have
    their conductances added.  Surviving vertices are relabeled densely in
    increasing order of their old ids, with min(S) standing for the merged
    vertex.  meta['vertex_map'] maps every old id to its new id and
    meta['wired_vertex'] names the merged vertex.
    """
    S = list(S)
    if not S:
        raise EmptySet("cannot wire an empty vertex set")
    for x in S:
        g.check_vertex(x)
    sset = set(int(x) for x in S)
    rep = min(sset)
    survivors = sorted(set(range(g.n)) - sset | {rep})
    if len(survivors) < 2:
        raise DisconnectedGraph("wiring would leave fewer than two vertices")
    new_id = {old: i for i, old in enumerate(survivors)}
    vmap = {old: new_id[rep] if old in sset else new_id[old] for old in range(g.n)}
    edge_weights = {}
    for u, v, w in g.edges:
        a, b = vmap[u], vmap[v]
        if a == b:
            continue  # internal to S
        if a > b:
            a, b = b, a
        edge_weights[(a, b)] = edge_weights.get((a, b), 0.0) + w
    coords = None
    if g.coords is not None:
        coords = {}
        for old in survivors:
            if old == rep and len(sset) > 1:
                continue  # merged vertex has no natural coordinate
            if old in g.coords:
                coords[new_id[old]] = g.coords[old]
    meta = dict(g.meta)
    meta.update(
        {
            "wired": True,
            "wired_set_size": len(sset),
            "wired_vertex": new_id[rep],
            "vertex_map": vmap,
        }
    )
    for key in ("boundary", "corners", "side_midpoints", "start_reps", "endpoints"):
        if key in meta and isinstance(meta[key], list):
            meta[key] = sorted({vmap[v] for v in meta[key]})
    if "center" in meta:
        meta["center"] = vmap[meta["center"]]
    if "center_rep" in meta:
        meta["center_rep"] = vmap[meta["center_rep"]]
    return _finish_graph(len(survivors), edge_weights, coords, meta)


def graph_distance(g: WeightedGraph, x, y) -> int:
    """Hop-count distance (weights ignored)."""
    g.check_vertex(x)
    g.check_vertex(y)
    if x == y:
        return 0
    adj, _ = g.adjacency()
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[x] = 0
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if v == y:
                    return int(dist[v])
                queue.append(v)
    raise DisconnectedGraph(f"no path from {x} to {y}")  # pragma: no cover


def distance_matrix(g: WeightedGraph) -> np.ndarray:
    """All-pairs hop-count distances via one BFS per vertex."""
    adj, _ = g.adjacency()
    out = np.full((g.n, g.n), -1, dtype=np.int64)
    for s in range(g.n):
        row = out[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = row[u]
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = du + 1
                    queue.append(v)
    if (out < 0).any():
        raise DisconnectedGraph("graph is not connected")  # pragma: no cover
    return out
