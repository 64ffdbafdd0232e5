import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistwalk import FamilySpec, build_graph, distance_matrix, generate, graph_distance, wire_vertices
from resistwalk.errors import (
    BudgetError,
    ConfigError,
    DisconnectedGraph,
    InvariantViolation,
    LevelTooLarge,
    MissingCoords,
    NonpositiveWeight,
    ResistwalkError,
    SelfLoop,
    UnknownVertex,
)

# closed-form family counts: path n+1 / n; gasket 3^{i+1} edges and
# |V_{i+1}| = 3|V_i| - 3; vicsek 4*5^i + 1 / 4*5^i; carpet edge recursion
# e_{i+1} = 8 e_i + 8 3^{i+1}
FAMILY_COUNTS = {
    ("path", 10): (11, 10),
    ("gasket", 0): (3, 3),
    ("gasket", 1): (6, 9),
    ("gasket", 2): (15, 27),
    ("gasket", 3): (42, 81),
    ("gasket", 4): (123, 243),
    ("vicsek", 0): (5, 4),
    ("vicsek", 1): (21, 20),
    ("vicsek", 2): (101, 100),
    ("carpet", 0): (8, 8),
    ("carpet", 1): (64, 88),
    ("carpet", 2): (512, 776),
}


@pytest.mark.parametrize("family,level", sorted(FAMILY_COUNTS))
def test_family_counts(family, level):
    g = generate(FamilySpec(family, level))
    assert (g.n, g.num_edges) == FAMILY_COUNTS[(family, level)]


def test_total_mass_is_twice_edge_weight():
    for family, level in FAMILY_COUNTS:
        g = generate(FamilySpec(family, level))
        assert g.total_mass == pytest.approx(2.0 * sum(w for _, _, w in g.edges), rel=1e-12)
        assert np.all(g.mu > 0)


def test_mu_matches_incident_weights(graph_set):
    for g in graph_set.values():
        mu = np.zeros(g.n)
        for u, v, w in g.edges:
            mu[u] += w
            mu[v] += w
        np.testing.assert_allclose(g.mu, mu, rtol=1e-12)


def test_gasket_coords_exact_corners():
    g = generate(FamilySpec("gasket", 2))
    corners = g.meta["corners"]
    pts = [g.coords[c] for c in corners]
    assert (0.0, 0.0) in pts and (1.0, 0.0) in pts
    ys = sorted(p[1] for p in pts)
    assert ys[-1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_vicsek_is_tree():
    for level in (0, 1, 2):
        g = generate(FamilySpec("vicsek", level))
        assert g.num_edges == g.n - 1


def test_carpet_lattice_spacing():
    g = generate(FamilySpec("carpet", 1))
    step = 1.0 / 9.0
    for u, v, _ in g.edges:
        d = math.dist(g.coords[u], g.coords[v])
        assert d == pytest.approx(step, rel=1e-12)


def test_wired_carpet_identifies_boundary():
    g = generate(FamilySpec("carpet", 1))
    gw = generate(FamilySpec("wired_carpet", 1))
    assert gw.n == g.n - len(g.meta["boundary"]) + 1
    assert gw.meta["wired_set_size"] == len(g.meta["boundary"])


def test_wired_carpet_level0_degenerates():
    with pytest.raises(LevelTooLarge):
        generate(FamilySpec("wired_carpet", 0))


def test_level_caps():
    with pytest.raises(LevelTooLarge):
        generate(FamilySpec("vicsek", 7))
    with pytest.raises(LevelTooLarge):
        generate(FamilySpec("gasket", -1))


def test_build_graph_rejections():
    with pytest.raises(SelfLoop):
        build_graph([(0, 0, 1.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph([(0, 1, 0.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph([(0, 1, -2.0)])
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1, 1.0), (2, 3, 1.0)])


def test_build_graph_merges_parallel_edges():
    g = build_graph([(0, 1, 1.0), (1, 0, 2.0)])
    assert g.edges == [(0, 1, 3.0)]


def test_build_graph_relabels_sparse_ids():
    g = build_graph([(5, 9, 1.0), (9, 30, 1.0)])
    assert g.n == 3
    assert g.meta["labels"] == [5, 9, 30]


def test_coord_array_needs_coords():
    assert generate(FamilySpec("gasket", 1)).coord_array().shape == (6, 2)
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(MissingCoords):
        g.coord_array()
    # a plain library error (CLI exit code 1), not a vertex-id error
    assert MissingCoords.__bases__ == (ResistwalkError,)
    assert not issubclass(MissingCoords, (UnknownVertex, ConfigError, BudgetError, InvariantViolation))


def test_graph_distance_on_path():
    g = generate(FamilySpec("path", 10))
    assert graph_distance(g, 0, 10) == 10
    assert graph_distance(g, 3, 7) == 4
    D = distance_matrix(g)
    assert D[0, 10] == 10
    np.testing.assert_array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)


def test_wire_vertices_degenerate():
    g = generate(FamilySpec("path", 2))
    with pytest.raises(DisconnectedGraph):
        wire_vertices(g, [0, 1, 2])


@st.composite
def random_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        w = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        edges.append((u, v, w))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    for u, v in extra:
        if u != v:
            edges.append((u, v, 1.0))
    return edges


@given(random_connected_graphs())
@settings(max_examples=60, deadline=None)
def test_total_mass_property(edges):
    g = build_graph(edges)
    assert g.total_mass == pytest.approx(float(g.mu.sum()), rel=1e-12)
    assert g.total_mass == pytest.approx(2.0 * sum(w for _, _, w in g.edges), rel=1e-12)
    # canonical edge order: u < v, lexicographic
    assert g.edges == sorted(g.edges, key=lambda e: (e[0], e[1]))
    assert all(u < v for u, v, _ in g.edges)
