"""Finite weighted graphs and the self-similar families used throughout.

A weighted graph carries symmetric positive conductances on its edges.  The
vertex measure mu_x is the sum of conductances incident to x and the total
mass m(G) is the sum of mu_x over all vertices (twice the total edge weight).

Family graphs are built by the iterated-function-system cell recursion on
integer lattice points, scaled by each level's common denominator, and
vertices are identified by exact lattice-point equality.  Floating point only
enters when coordinates are exported for plotting or distance computations in
the plane; each coordinate is the correctly rounded quotient of a lattice
point and the scale.

What other modules derive from a graph (edge arrays, adjacency lists, the
Laplacian solver, exact-chain solves, walker tables) is built once, into the
graph's one memo `WeightedGraph._cache`, through `WeightedGraph._derived`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    DisconnectedGraph,
    EmptySet,
    LevelTooLarge,
    MissingCoords,
    NonpositiveWeight,
    RangeError,
    SelfLoop,
    UnknownVertex,
)

FAMILIES = ("path", "vicsek", "gasket", "carpet", "wired_carpet")

## A family's levels run from _MIN_LEVEL (0 where unlisted) to MAX_LEVEL, and
## `_check_level` refuses any other.  A path's level counts its edges, and
## every level-0 carpet cell touches the outer boundary, so wiring carpet-0
## would leave one vertex.  The caps keep vertex counts at desk scale (the
## carpet triples its side each level, the gasket doubles).
_MIN_LEVEL = {"path": 1, "wired_carpet": 1}
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
    sorted lexicographically.  Instances are treated as immutable, so what
    other modules derive from one is built once and kept in `_cache`, keyed
    by name.  `_cache` is not an init field: `dataclasses.replace` gives the
    new graph an empty one.
    """

    n: int
    edges: list  # [(u, v, weight)], u < v, sorted
    mu: np.ndarray
    total_mass: float
    coords: dict | None = None  # vertex -> (x, y), possibly partial
    meta: dict = field(default_factory=dict)

    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def _derived(self, key, build):
        """The value memoized under key, made by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def num_edges(self):
        return len(self.edges)

    def check_vertex(self, x):
        if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < self.n):
            raise UnknownVertex(f"vertex {x!r} not in 0..{self.n - 1}")

    def adjacency(self):
        """Neighbor and incident-weight lists, built once per graph."""
        return self._derived("adjacency", self._build_adjacency)

    def _build_adjacency(self):
        adj = [[] for _ in range(self.n)]
        adj_w = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append(v)
            adj_w[u].append(w)
            adj[v].append(u)
            adj_w[v].append(w)
        return adj, adj_w

    def uniform_weights(self) -> bool:
        """True when every edge carries the same conductance."""
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: what a graph's memo holds must not change."""
    a.setflags(write=False)
    return a


def _edge_array_triple(edges):
    return tuple(
        _frozen(np.fromiter((e[k] for e in edges), dtype=t, count=len(edges)))
        for k, t in enumerate((np.int64, np.int64, np.float64))
    )


def _edge_arrays(g: WeightedGraph):
    """(eu, ev, ew): read-only endpoint and weight arrays in edge order."""
    return g._derived("edge_arrays", lambda: _edge_array_triple(g.edges))


def _links(n, eu, ev):
    """The n x n 0/1 matrix with a 1 at (u, v) for each edge u < v."""
    return csr_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n))


def _finish_graph(n, edge_weights, coords=None, meta=None):
    """Assemble a WeightedGraph from {(u,v): w} with u < v.  bincount over
    the endpoints (u0, v0, u1, v1, ...) adds each mu_x's weights in edge
    order, as a loop over the sorted edges would."""
    if n < 2:
        raise DisconnectedGraph("a graph needs at least two vertices")
    edges = sorted((u, v, w) for (u, v), w in edge_weights.items())
    eu, ev, ew = arrays = _edge_array_triple(edges)
    ends = np.stack([eu, ev], axis=1).ravel()
    mu = np.bincount(ends, weights=np.repeat(ew, 2), minlength=n)
    if connected_components(_links(n, eu, ev), directed=False)[0] != 1:
        raise DisconnectedGraph("graph is not connected")
    g = WeightedGraph(
        n=n,
        edges=edges,
        mu=mu,
        total_mass=float(mu.sum()),
        coords=coords,
        meta=meta or {},
    )
    g._cache["edge_arrays"] = arrays
    return g


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
            raise RangeError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not (self.weight > 0) or not math.isfinite(self.weight):
            raise NonpositiveWeight(f"edge weight {self.weight!r}")


def _check_level(family, level):
    """Refuse a level outside the family's range [_MIN_LEVEL, MAX_LEVEL]."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise LevelTooLarge(f"level must be an integer, got {level!r}")
    lo, hi = _MIN_LEVEL.get(family, 0), MAX_LEVEL[family]
    if not lo <= level <= hi:
        raise LevelTooLarge(f"{family} level {level} is outside [{lo}, {hi}]")


## Triangular-lattice basis for the gasket: a point (a, b) sits at
## a*(1, 0) + b*(1/2, sqrt(3)/2) in the plane.
_SQRT3_2 = math.sqrt(3.0) / 2.0


def _cell_lattice(cell, ratio, offsets, level, cell_edges=()):
    """Vertices and edges of the level-`level` cells of a self-similar set.

    Points are int64 lattice points scaled by the level's common
    denominator.  The level-0 cell (lattice points `cell`, edges
    `cell_edges` as pairs of positions in `cell`) is translated to every
    origin of the cell recursion o -> ratio*o + c, c in `offsets`, from
    o = 0.  Returns the points in lexicographic order (row i is vertex i),
    a {point: vertex} dict and the set of cell edges as vertex pairs u < v.
    """
    origins = np.zeros((1, 2), dtype=np.int64)
    for _ in range(level):
        origins = (ratio * origins[:, None] + np.array(offsets)).reshape(-1, 2)
    cells = origins[:, None] + np.array(cell)
    side = int(cells.max()) + 1
    keys, ids = np.unique(cells[..., 0] * side + cells[..., 1], return_inverse=True)
    pts = np.stack(np.divmod(keys, side), axis=1)
    pairs = ids.reshape(len(origins), len(cell))[:, np.array(cell_edges, dtype=np.intp)]
    edges = set(map(tuple, np.sort(pairs.reshape(-1, 2), axis=1).tolist()))
    index = {p: i for i, p in enumerate(map(tuple, pts.tolist()))}
    return pts, index, edges


def _gasket(level):
    ## Edges follow the cell recursion E_{i+1} = union of the three half-scale
    ## copies of E_i.  Within one cell this is the same as "pairs at Euclidean
    ## distance 2^-i", but from level 2 on the raw distance rule would also
    ## pick up pairs straddling the central hole, which do not belong to the
    ## gasket graph (and would break the exact 5/3 resistance recursion).
    S = 2**level
    corners = [(0, 0), (1, 0), (0, 1)]
    pts, index, edge_pairs = _cell_lattice(corners, 2, corners, level, [(0, 1), (0, 2), (1, 2)])
    a, b = (pts / S).T
    coords = dict(enumerate(zip((a + b / 2.0).tolist(), (b * _SQRT3_2).tolist())))
    corner_ids = [index[(0, 0)], index[(S, 0)], index[(0, S)]]
    meta = {"corners": corner_ids}
    mids = [(S // 2, 0), (0, S // 2), (S // 2, S // 2)]
    if level >= 1:
        meta["side_midpoints"] = [index[p] for p in mids]
    # centroid of the outer triangle in the plane
    cx = (0.0 + 1.0 + 0.5) / 3.0
    cy = (0.0 + 0.0 + _SQRT3_2) / 3.0
    best = min(range(len(pts)), key=lambda i: (coords[i][0] - cx) ** 2 + (coords[i][1] - cy) ** 2)
    meta["center_rep"] = best
    meta["start_reps"] = sorted(set([corner_ids[0]] + ([index[mids[0]]] if level >= 1 else []) + [best]))
    return edge_pairs, coords, meta, len(pts)


def _vicsek(level):
    ## Scaled by 2*3^level: the cell is the unit square's corners and centre,
    ## joined to the centre; the five maps fix those points.
    S = 2 * 3**level
    cell = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    offsets = [(2 * x, 2 * y) for x, y in cell]
    pts, index, edge_pairs = _cell_lattice(cell, 3, offsets, level, [(0, 4), (1, 4), (2, 4), (3, 4)])
    coords = dict(enumerate(map(tuple, (pts / S).tolist())))
    center = index[(S // 2, S // 2)]
    meta = {
        "corners": [index[c] for c in [(0, 0), (S, 0), (0, S), (S, S)]],
        "center": center,
        "start_reps": sorted({index[(0, 0)], center}),
    }
    return edge_pairs, coords, meta, len(pts)


## Carpet cells: the eight maps fix the corners and edge midpoints of the
## unit square; in offset form, psi_a(x) = (x + a)/3 for a in {0,1,2}^2
## minus the centre cell.  The level-L graph has one vertex at the centre of
## each level-(L+1) cell, so on the lattice scaled by 2*3^(L+1) the vertices
## are the recursion of the point (1, 1) with offsets 2a, and edges join
## lattice neighbours at distance 2.
_CARPET_OFFSETS = [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)]


def _carpet(level):
    S = 2 * 3 ** (level + 1)
    pts, index, _ = _cell_lattice([(1, 1)], 3, _CARPET_OFFSETS, level + 1)
    edge_pairs = {
        (index[p], index[q])
        for p in index
        for q in ((p[0] + 2, p[1]), (p[0], p[1] + 2))
        if q in index
    }
    coords = dict(enumerate(map(tuple, (pts / S).tolist())))
    on_side = np.isin(pts, (1, S - 1))
    corners = np.flatnonzero(on_side.all(axis=1)).tolist()
    meta = {"boundary": np.flatnonzero(on_side.any(axis=1)).tolist(), "corners": corners}
    bottom_mid = (S // 2, 1)
    meta["side_midpoints"] = [index[bottom_mid]] if bottom_mid in index else []
    meta["start_reps"] = sorted(set(corners[:1] + meta["side_midpoints"]))
    return edge_pairs, coords, meta, len(pts)


_LATTICE_BUILDERS = {"gasket": _gasket, "vicsek": _vicsek, "carpet": _carpet, "wired_carpet": _carpet}


def generate(spec: FamilySpec) -> WeightedGraph:
    """Build one family graph with uniform conductance spec.weight.

    Vertex ids are dense integers in sorted coordinate order.  meta records
    the family, level, and the special vertex sets each family exposes
    (corners, boundary, start representatives).
    """
    family, level, w = spec.family, spec.level, float(spec.weight)
    _check_level(family, level)

    if family == "path":
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

    edge_pairs, coords, meta, n = _LATTICE_BUILDERS[family](level)
    meta.update({"family": family, "level": level, "weight": w})
    edge_weights = {pair: w for pair in edge_pairs}
    g = _finish_graph(n, edge_weights, coords, meta)

    if family == "wired_carpet":
        g = wire_vertices(g, g.meta["boundary"])
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

