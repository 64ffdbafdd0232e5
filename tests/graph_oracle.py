"""Reference builders for the self-similar family graphs, on exact rational
coordinates (fractions.Fraction).  They are the oracle `graphs.generate` is
checked against: swapped in for the builders of `graphs._LATTICE_BUILDERS`
(through `lattice_arrays`), they must give the same vertex ids, edges,
coordinates and meta.  Vertices are identified by exact coordinate equality.

`build_graph` and `wire_vertices` are the dict loops the array routes of
`graphs` are checked against: each returns a `RefGraph` with the edge list,
the mu bytes, the coordinate dict and the meta the real graph must have.
`adjacency` is the edge loop the walker's neighbour rows are checked against.

`laplacian_dense` is the reference the grounded sparse Laplacian of
`resistance` is checked against.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


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


def lattice_arrays(edge_pairs, coords, meta, n):
    """A reference builder's output in the form the lattice builders return:
    sorted edge arrays eu < ev, the (n, 2) coordinate array and meta."""
    eu, ev = np.array(sorted(edge_pairs), dtype=np.int64).reshape(-1, 2).T
    xy = np.array([coords[v] for v in range(n)], dtype=float).reshape(n, 2)
    return eu, ev, xy, meta


class RefGraph(NamedTuple):
    n: int
    edges: list
    mu: np.ndarray
    coords: dict | None
    meta: dict


def _finish(n, edge_weights, coords, meta):
    edges = sorted((u, v, w) for (u, v), w in edge_weights.items())
    mu = np.zeros(n)
    for u, v, w in edges:
        mu[u] += w
        mu[v] += w
    return RefGraph(n, edges, mu, coords, meta)


def build_graph(edge_list):
    """The graph `graphs.build_graph` makes of a valid edge list, by dicts."""
    labels = sorted({x for u, v, _ in edge_list for x in (u, v)})
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
    return _finish(len(labels), edge_weights, None, meta)


def wire_vertices(g, S):
    """The graph `graphs.wire_vertices(g, S)` makes, by dicts over g's edge
    list, coordinate dict and meta."""
    sset = set(int(x) for x in S)
    rep = min(sset)
    survivors = sorted(set(range(g.n)) - sset | {rep})
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
    return _finish(len(survivors), edge_weights, coords, meta)


def adjacency(g):
    """g's neighbour and incident-weight lists, by a loop over its edges."""
    adj = [[] for _ in range(g.n)]
    adj_w = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append(v)
        adj_w[u].append(w)
        adj[v].append(u)
        adj_w[v].append(w)
    return adj, adj_w


def laplacian_dense(g):
    """The graph Laplacian as a dense n x n array: mu on the diagonal, minus
    each edge weight at its two off-diagonal places."""
    eu, ev, ew = g.eu, g.ev, g.ew
    L = np.zeros((g.n, g.n))
    np.subtract.at(L, (eu, ev), ew)
    np.subtract.at(L, (ev, eu), ew)
    np.fill_diagonal(L, g.mu)
    return L
