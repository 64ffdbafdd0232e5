"""Finite weighted graphs and the self-similar families used throughout.

A weighted graph carries symmetric positive conductances on its edges.  The
vertex measure mu_x is the sum of conductances incident to x and the total
mass m(G) is the sum of mu_x over all vertices (twice the total edge weight).

A graph is held as numpy arrays: its edges as the endpoint and conductance
arrays (eu, ev, ew), one entry per unordered pair with eu < ev, sorted, and
its coordinates as the (n, 2) array xy.  Building, wiring, the connectivity
check every new graph passes and what other modules derive from a graph are
numpy array operations on these, with no scipy import; the Python views of a
graph (the edge list `edges` and the coordinate dict `coords`) are made from
them on first use.

Family graphs are built by the iterated-function-system cell recursion on
integer lattice points, scaled by each level's common denominator, and
vertices are identified by exact lattice-point equality.  Floating point only
enters when coordinates are exported for plotting or distance computations in
the plane; each coordinate is the correctly rounded quotient of a lattice
point and the scale.

What other modules derive from a graph (neighbour rows, the Laplacian
solver, exact-chain solves, walker tables) is built once, into the graph's
one memo `WeightedGraph._cache`, through `WeightedGraph._derived`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, is_dataclass

import numpy as np

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


def _jsonable(obj):
    """JSON-ready copy of nested numpy/Python values: arrays become lists,
    numpy scalars Python scalars, tuples lists, dict keys strings and
    dataclass instances their attribute dicts."""
    if isinstance(obj, np.ndarray):  # tolist gives Python bools, ints and floats
        return obj.tolist() if obj.dtype.kind in "biuf" else _jsonable(obj.tolist())
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
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(vars(obj))
    return obj


@dataclass(eq=False)
class WeightedGraph:
    """Connected weighted graph on dense integer vertices 0..n-1.

    eu, ev and ew hold one edge per unordered pair, (eu[i], ev[i]) with
    eu[i] < ev[i] and conductance ew[i], sorted by (eu, ev).  Row v of xy
    holds vertex v's coordinates, NaN where v has none (the merged vertex of
    a wired graph); xy is None for a graph without coordinates.  These
    arrays are read-only and instances are treated as immutable, so what
    other modules derive from one is built once and kept in `_cache`, keyed
    by name.  `_cache` is not an init field: `dataclasses.replace` gives the
    new graph an empty one.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    ew: np.ndarray
    mu: np.ndarray
    total_mass: float
    xy: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def _derived(self, key, build):
        """The value memoized under key, made by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def num_edges(self):
        return len(self.eu)

    @property
    def edges(self) -> list:
        """[(u, v, weight)] in edge order, as Python ints and floats."""
        return self._derived("edges", lambda: list(zip(self.eu.tolist(), self.ev.tolist(), self.ew.tolist())))

    @property
    def coords(self) -> dict | None:
        """{vertex: (x, y)} for the vertices that have coordinates, in vertex
        order, or None for a graph without coordinates."""
        if self.xy is None:
            return None

        def build():
            has = ~np.isnan(self.xy[:, 0])
            return dict(zip(np.flatnonzero(has).tolist(), map(tuple, self.xy[has].tolist())))

        return self._derived("coords", build)

    def check_vertex(self, x):
        if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < self.n):
            raise UnknownVertex(f"vertex {x!r} not in 0..{self.n - 1}")

    def uniform_weights(self) -> bool:
        """True when every edge carries the same conductance."""
        return bool((self.ew == self.ew[0]).all())

    def coord_array(self):
        """Vertex coordinates as an (n, 2) float array; requires full coords."""
        if self.xy is None or np.isnan(self.xy).any():
            raise MissingCoords("graph does not carry coordinates for every vertex")
        return self.xy.copy()


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: what a graph holds must not change."""
    a.setflags(write=False)
    return a


def _rows(g: WeightedGraph):
    """(start, nbr, w): vertex x's neighbours are nbr[start[x]:start[x + 1]],
    in ascending order, with their conductances in w.  That is the order a
    loop over the sorted edges meets them in, since the edges (u, x) with
    u < x come before the edges (x, v)."""

    def build():
        src, dst = np.concatenate([g.eu, g.ev]), np.concatenate([g.ev, g.eu])
        order = np.argsort(src * g.n + dst)
        start = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=g.n), out=start[1:])
        return _frozen(start), _frozen(dst[order]), _frozen(np.concatenate([g.ew, g.ew])[order])

    return g._derived("rows", build)


def _connected(n, eu, ev) -> bool:
    """Whether the edges eu[i] -- ev[i] join all n vertices.

    Each vertex starts as its own root.  Each round hooks every root to the
    least root it shares an edge with, then compresses the trees with
    root = root[root] until every vertex points at a root; rounds go on
    until no edge joins two roots.  A hook always points at a lesser root,
    so a component's last root is its least vertex, and the graph is
    connected when that is vertex 0 for every vertex."""
    root = np.arange(n)
    while True:
        ru, rv = root[eu], root[ev]
        split = ru != rv
        if not split.any():
            return not root.any()
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while not np.array_equal(up := root[root], root):
            root = up


def _merge_edges(n, a, b, w):
    """Edge arrays (eu, ev, ew) of the entries a[i] -- b[i] of conductance
    w[i] on n vertices: entries with a[i] == b[i] are dropped and parallel
    ones merged.  bincount adds a pair's conductances from 0.0 in entry
    order, as a dict of running sums would."""
    keep = a != b
    a, b, w = a[keep], b[keep], w[keep]
    keys, at = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    eu, ev = np.divmod(keys, n)
    return eu, ev, np.bincount(at, weights=w, minlength=len(keys))


def _finish_graph(n, eu, ev, ew, xy=None, meta=None):
    """Assemble a WeightedGraph from edge arrays in its order (eu < ev, one
    entry per pair, sorted) and an optional (n, 2) coordinate array.
    bincount over the endpoints (u0, v0, u1, v1, ...) adds each mu_x's
    weights in edge order, as a loop over the sorted edges would."""
    if n < 2:
        raise DisconnectedGraph("a graph needs at least two vertices")
    eu, ev = (_frozen(np.asarray(a, dtype=np.int64)) for a in (eu, ev))
    ew = _frozen(np.asarray(ew, dtype=np.float64))
    ends = np.stack([eu, ev], axis=1).ravel()
    mu = np.bincount(ends, weights=np.repeat(ew, 2), minlength=n)
    if not _connected(n, eu, ev):
        raise DisconnectedGraph("graph is not connected")
    return WeightedGraph(
        n=n,
        eu=eu,
        ev=ev,
        ew=ew,
        mu=mu,
        total_mass=float(mu.sum()),
        xy=None if xy is None else _frozen(xy),
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
    ends = np.array([(index[u], index[v]) for u, v, _ in edge_list], dtype=np.int64).reshape(-1, 2)
    w = np.array([float(w) for _, _, w in edge_list])
    meta = {}
    if labels != list(range(len(labels))):
        meta["labels"] = labels
    return _finish_graph(len(labels), *_merge_edges(len(labels), ends[:, 0], ends[:, 1], w), meta=meta)


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
    """Refuse a level outside the family's range [lo, hi]."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise LevelTooLarge(f"level must be an integer, got {level!r}")
    f = _FAMILIES[family]
    if not f.lo <= level <= f.hi:
        raise LevelTooLarge(f"{family} level {level} is outside [{f.lo}, {f.hi}]")


def _path(level):
    xy = np.zeros((level + 1, 2))
    xy[:, 0] = np.arange(level + 1)
    meta = {"endpoints": [0, level], "start_reps": [0, level // 2]}
    return np.arange(level), np.arange(1, level + 1), xy, meta


## Triangular-lattice basis for the gasket: a point (a, b) sits at
## a*(1, 0) + b*(1/2, sqrt(3)/2) in the plane.
_SQRT3_2 = math.sqrt(3.0) / 2.0


def _cell_lattice(cell, ratio, offsets, level, cell_edges=()):
    """Vertices and edges of the level-`level` cells of a self-similar set.

    Points are int64 lattice points scaled by the level's common
    denominator.  The level-0 cell (lattice points `cell`, edges
    `cell_edges` as pairs of positions in `cell`) is translated to every
    origin of the cell recursion o -> ratio*o + c, c in `offsets`, from
    o = 0.  Returns the points in lexicographic order (row i is vertex i)
    and the cell edges as sorted arrays eu < ev, each pair once.
    """
    origins = np.zeros((1, 2), dtype=np.int64)
    for _ in range(level):
        origins = (ratio * origins[:, None] + np.array(offsets)).reshape(-1, 2)
    cells = origins[:, None] + np.array(cell)
    side = int(cells.max()) + 1
    keys, ids = np.unique(cells[..., 0] * side + cells[..., 1], return_inverse=True)
    pts = np.stack(np.divmod(keys, side), axis=1)
    pairs = ids.reshape(len(origins), len(cell))[:, np.array(cell_edges, dtype=np.intp)]
    lo, hi = np.sort(pairs.reshape(-1, 2), axis=1).T
    eu, ev = np.divmod(np.unique(lo * len(pts) + hi), len(pts))
    return pts, eu, ev


def _find(pts, q):
    """The vertex at each lattice point of q: its row in pts (sorted
    lexicographically, nonnegative), or -1 where pts has no such point."""
    q = np.asarray(q, dtype=np.int64).reshape(-1, 2)
    side = int(pts.max()) + 1
    at = np.searchsorted(pts[:, 0] * side + pts[:, 1], q[:, 0] * side + q[:, 1])
    at = np.minimum(at, len(pts) - 1)
    return np.where((pts[at] == q).all(axis=1), at, -1)


def _gasket(level):
    ## Edges follow the cell recursion E_{i+1} = union of the three half-scale
    ## copies of E_i.  Within one cell this is the same as "pairs at Euclidean
    ## distance 2^-i", but from level 2 on the raw distance rule would also
    ## pick up pairs straddling the central hole, which do not belong to the
    ## gasket graph (and would break the exact 5/3 resistance recursion).
    S = 2**level
    corners = [(0, 0), (1, 0), (0, 1)]
    pts, eu, ev = _cell_lattice(corners, 2, corners, level, [(0, 1), (0, 2), (1, 2)])
    a, b = (pts / S).T
    xy = np.stack([a + b / 2.0, b * _SQRT3_2], axis=1)
    found = _find(pts, [(0, 0), (S, 0), (0, S), (S // 2, 0), (0, S // 2), (S // 2, S // 2)]).tolist()
    corner_ids = found[:3]
    mids = found[3:] if level >= 1 else []  # level 0 has no side midpoints
    meta = {"corners": corner_ids}
    if mids:
        meta["side_midpoints"] = mids
    # centroid of the outer triangle in the plane
    cx = (0.0 + 1.0 + 0.5) / 3.0
    cy = (0.0 + 0.0 + _SQRT3_2) / 3.0
    best = int(np.argmin((xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2))  # the first of equal minima
    meta["center_rep"] = best
    meta["start_reps"] = sorted(set([corner_ids[0]] + mids[:1] + [best]))
    return eu, ev, xy, meta


def _vicsek(level):
    ## Scaled by 2*3^level: the cell is the unit square's corners and centre,
    ## joined to the centre; the five maps fix those points.
    S = 2 * 3**level
    cell = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    offsets = [(2 * x, 2 * y) for x, y in cell]
    pts, eu, ev = _cell_lattice(cell, 3, offsets, level, [(0, 4), (1, 4), (2, 4), (3, 4)])
    found = _find(pts, [(0, 0), (S, 0), (0, S), (S, S), (S // 2, S // 2)]).tolist()
    center = found[4]
    meta = {
        "corners": found[:4],
        "center": center,
        "start_reps": sorted({found[0], center}),
    }
    return eu, ev, pts / S, meta


## Carpet cells: the eight maps fix the corners and edge midpoints of the
## unit square; in offset form, psi_a(x) = (x + a)/3 for a in {0,1,2}^2
## minus the centre cell.  The level-L graph has one vertex at the centre of
## each level-(L+1) cell, so on the lattice scaled by 2*3^(L+1) the vertices
## are the recursion of the point (1, 1) with offsets 2a, and edges join
## lattice neighbours at distance 2.
_CARPET_OFFSETS = [(0, 0), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4), (0, 4), (0, 2)]


def _carpet(level):
    S = 2 * 3 ** (level + 1)
    pts, _, _ = _cell_lattice([(1, 1)], 3, _CARPET_OFFSETS, level + 1)
    n = len(pts)
    # each vertex's right and upper neighbours, which come after it
    to = _find(pts, np.concatenate([pts + (2, 0), pts + (0, 2)]))
    has = to >= 0
    eu, ev = np.divmod(np.sort(np.tile(np.arange(n), 2)[has] * n + to[has]), n)
    on_side = np.isin(pts, (1, S - 1))
    corners = np.flatnonzero(on_side.all(axis=1)).tolist()
    meta = {"boundary": np.flatnonzero(on_side.any(axis=1)).tolist(), "corners": corners}
    bottom_mid = int(_find(pts, (S // 2, 1))[0])
    meta["side_midpoints"] = [bottom_mid] if bottom_mid >= 0 else []
    meta["start_reps"] = sorted(set(corners[:1] + meta["side_midpoints"]))
    return eu, ev, pts / S, meta


@dataclass(frozen=True)
class _Family:
    """A family's levels run from lo to hi, and `_check_level` refuses any
    other.  build(level) gives the edges eu < ev, the (n, 2) coordinates
    and the special vertex sets of the level's graph; ratio is the length
    contraction of the family's cell maps."""

    lo: int
    hi: int
    build: Callable
    ratio: float


## A path's level counts its edges, and every level-0 carpet cell touches
## the outer boundary, so wiring carpet-0 would leave one vertex.  The caps
## keep vertex counts at desk scale (the carpet triples its side each
## level, the gasket doubles).
_FAMILIES = {
    "path": _Family(1, 10**6, _path, 2.0),
    "vicsek": _Family(0, 6, _vicsek, 3.0),
    "gasket": _Family(0, 7, _gasket, 2.0),
    "carpet": _Family(0, 3, _carpet, 3.0),
    "wired_carpet": _Family(1, 3, _carpet, 3.0),
}
FAMILIES = tuple(_FAMILIES)


def generate(spec: FamilySpec) -> WeightedGraph:
    """Build one family graph with uniform conductance spec.weight.

    Vertex ids are dense integers in sorted coordinate order.  meta records
    the family, level, and the special vertex sets each family exposes
    (corners, boundary, start representatives).
    """
    family, level, w = spec.family, spec.level, float(spec.weight)
    _check_level(family, level)
    eu, ev, xy, meta = _FAMILIES[family].build(level)
    meta.update({"family": family, "level": level, "weight": w})
    g = _finish_graph(len(xy), eu, ev, np.full(len(eu), w), xy, meta)

    if family == "wired_carpet":
        g = wire_vertices(g, g.meta["boundary"])
        cx = cy = 0.5
        d = (g.xy[:, 0] - cx) ** 2 + (g.xy[:, 1] - cy) ** 2
        d[g.meta["wired_vertex"]] = np.inf  # the merged vertex has no coordinate
        g.meta["start_reps"] = sorted({g.meta["wired_vertex"], int(np.argmin(d))})
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
    in_s = np.zeros(g.n, dtype=bool)
    in_s[np.array(S, dtype=np.int64)] = True
    rep = min(int(x) for x in S)
    keep = ~in_s
    keep[rep] = True
    m = int(np.count_nonzero(keep))
    if m < 2:
        raise DisconnectedGraph("wiring would leave fewer than two vertices")
    new_id = np.cumsum(keep) - 1
    wired, size = int(new_id[rep]), int(np.count_nonzero(in_s))
    vmap = np.where(in_s, wired, new_id)
    xy = None
    if g.xy is not None:
        xy = g.xy[keep]
        if size > 1:
            xy[wired] = np.nan  # merged vertex has no natural coordinate
    vm = vmap.tolist()
    meta = dict(g.meta)
    meta.update(
        {
            "wired": True,
            "wired_set_size": size,
            "wired_vertex": wired,
            "vertex_map": dict(enumerate(vm)),
        }
    )
    for key in ("boundary", "corners", "side_midpoints", "start_reps", "endpoints"):
        if key in meta and isinstance(meta[key], list):
            meta[key] = sorted({vm[v] for v in meta[key]})
    if "center" in meta:
        meta["center"] = vm[meta["center"]]
    if "center_rep" in meta:
        meta["center_rep"] = vm[meta["center_rep"]]
    return _finish_graph(m, *_merge_edges(m, vmap[g.eu], vmap[g.ev], g.ew), xy, meta)
