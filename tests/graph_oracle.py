"""Reference builders for the self-similar family graphs, on exact rational
coordinates (fractions.Fraction).  They are the oracle `graphs.generate` is
checked against: swapped in for the builders of `graphs._LATTICE_BUILDERS`,
they must give the same vertex ids, edges, coordinates and meta.  Vertices
are identified by exact coordinate equality.

`laplacian_dense` is the reference the grounded sparse Laplacian of
`resistance` is checked against.
"""

import math
from fractions import Fraction

import numpy as np

from resistwalk.graphs import _edge_arrays

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


def laplacian_dense(g):
    """The graph Laplacian as a dense n x n array: mu on the diagonal, minus
    each edge weight at its two off-diagonal places."""
    eu, ev, ew = _edge_arrays(g)
    L = np.zeros((g.n, g.n))
    np.subtract.at(L, (eu, ev), ew)
    np.subtract.at(L, (ev, eu), ew)
    np.fill_diagonal(L, g.mu)
    return L
