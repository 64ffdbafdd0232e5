import gc
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistwalk import (
    FamilySpec,
    build_graph,
    effective_resistance,
    exact_chain,
    generate,
    graphs,
    walk_sim,
    wire_vertices,
)
from resistwalk.errors import (
    BudgetError,
    ConfigError,
    DisconnectedGraph,
    EmptySet,
    InvariantViolation,
    LevelTooLarge,
    MissingCoords,
    NonpositiveWeight,
    RangeError,
    ResistwalkError,
    SelfLoop,
    UnknownVertex,
)
from resistwalk.walk_sim import RngStream, walk_group

import graph_oracle

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
    ("gasket", 7): (3282, 6561),
    ("vicsek", 0): (5, 4),
    ("vicsek", 1): (21, 20),
    ("vicsek", 2): (101, 100),
    ("vicsek", 6): (62501, 62500),
    ("carpet", 0): (8, 8),
    ("carpet", 1): (64, 88),
    ("carpet", 2): (512, 776),
    ("carpet", 3): (4096, 6424),
}


@pytest.mark.parametrize("family,level", sorted(FAMILY_COUNTS))
def test_family_counts(family, level):
    g = generate(FamilySpec(family, level))
    assert (g.n, g.num_edges) == FAMILY_COUNTS[(family, level)]


ORACLE_CASES = (
    [("gasket", level) for level in range(8)]
    + [("vicsek", level) for level in range(6)]
    + [("carpet", level) for level in range(4)]
    + [("wired_carpet", level) for level in range(1, 4)]
)


@pytest.mark.parametrize("family,level", ORACLE_CASES)
def test_generate_matches_the_fraction_oracle(monkeypatch, family, level):
    """The lattice builders give the bytes of the exact-rational ones."""
    spec = FamilySpec(family, level, weight=1.5)
    g = generate(spec)
    build = getattr(graph_oracle, "_carpet" if family == "wired_carpet" else f"_{family}")
    calls = []
    monkeypatch.setitem(graphs._LATTICE_BUILDERS, family,
                        lambda lv: calls.append(lv) or graph_oracle.lattice_arrays(*build(lv)))
    want = generate(spec)
    assert calls == [level]  # the oracle built `want`
    assert g.n == want.n
    assert repr(g.edges) == repr(want.edges)
    assert g.mu.tobytes() == want.mu.tobytes()
    assert repr(g.total_mass) == repr(want.total_mass)
    assert [repr(c) for c in g.coords.items()] == [repr(c) for c in want.coords.items()]
    assert repr(g.meta) == repr(want.meta)


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
    for bad in (1.0, 1.5, "1", True, None):
        with pytest.raises(LevelTooLarge, match="must be an integer"):
            graphs._check_level("gasket", bad)
        with pytest.raises(LevelTooLarge, match="must be an integer"):
            generate(FamilySpec("gasket", bad))
    graphs._check_level("gasket", np.int64(2))


def test_build_graph_rejections():
    with pytest.raises(SelfLoop):
        build_graph([(0, 0, 1.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph([(0, 1, 0.0)])
    with pytest.raises(NonpositiveWeight):
        build_graph([(0, 1, -2.0)])
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph, match="at least two vertices"):
        build_graph([])


def test_build_graph_merges_parallel_edges():
    g = build_graph([(0, 1, 1.0), (1, 0, 2.0)])
    assert g.edges == [(0, 1, 3.0)]


def test_build_graph_relabels_sparse_ids():
    g = build_graph([(5, 9, 1.0), (9, 30, 1.0)])
    assert g.n == 3
    assert g.meta["labels"] == [5, 9, 30]


def test_uniform_weights_compares_every_conductance():
    assert generate(FamilySpec("gasket", 2, weight=1.5)).uniform_weights()
    assert not build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)]).uniform_weights()


def test_coord_array_needs_coords():
    assert generate(FamilySpec("gasket", 1)).coord_array().shape == (6, 2)
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(MissingCoords):
        g.coord_array()
    # a plain library error (CLI exit code 1), not a vertex-id error
    assert MissingCoords.__bases__ == (ResistwalkError,)
    assert not issubclass(MissingCoords, (UnknownVertex, ConfigError, BudgetError, InvariantViolation))


@pytest.mark.parametrize("family,level,key", [("vicsek", 1, "center"), ("gasket", 2, "center_rep")])
def test_wire_vertices_remaps_the_centre(family, level, key):
    g = generate(FamilySpec(family, level))
    c = g.meta[key]
    # the corners hold a vertex below the centre that is not the merged one,
    # so the centre's id moves down while it keeps its coordinate
    corners = g.meta["corners"]
    assert c not in corners and sum(v < c for v in corners) >= 2
    gw = wire_vertices(g, corners)
    assert gw.meta[key] == c - sum(v < c for v in corners) + 1
    assert gw.coords[gw.meta[key]] == g.coords[c]
    # a wired set holding the centre merges it into the set's least vertex
    gw = wire_vertices(g, [0, c])
    assert gw.meta[key] == gw.meta["wired_vertex"] == 0


def test_wire_vertices_degenerate():
    g = generate(FamilySpec("path", 2))
    with pytest.raises(DisconnectedGraph, match="wiring would leave fewer than two vertices"):
        wire_vertices(g, [0, 1, 2])
    with pytest.raises(EmptySet, match="empty vertex set"):
        wire_vertices(g, [])
    assert wire_vertices(g, [0, 1]).n == 2


def test_check_vertex_refuses_unknown_vertices():
    g = generate(FamilySpec("gasket", 1))
    for v in (0, g.n - 1, np.int64(3)):
        g.check_vertex(v)
    for bad in (-1, g.n, np.int64(g.n), 1.0, "0", None, True, False):
        with pytest.raises(UnknownVertex, match=r"not in 0\.\.5"):
            g.check_vertex(bad)
    with pytest.raises(UnknownVertex):
        wire_vertices(g, [0, g.n])
    # a bool is an int to isinstance; as a vertex it would index as a mask
    with pytest.raises(UnknownVertex):
        effective_resistance(generate(FamilySpec("path", 3)), True, 0)


def test_family_weight_must_be_positive_and_finite():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonpositiveWeight, match="edge weight"):
            FamilySpec("path", 3, weight=bad)
    assert generate(FamilySpec("path", 3, weight=2.5)).edges[0] == (0, 1, 2.5)


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


@st.composite
def merged_weighted_edge_lists(draw):
    """Connected edge lists over awkward weights, with parallel entries that
    build_graph merges by adding their conductances."""
    weights = st.sampled_from([0.1, 1.0 / 3.0, 1e-7])
    n = draw(st.integers(min_value=2, max_value=14))
    edges = [(draw(st.integers(0, v - 1)), v, draw(weights)) for v in range(1, n)]
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(chords, max_size=12)):
        if u != v:
            edges.append((u, v, draw(weights)))
    edges += draw(st.lists(st.sampled_from(edges), max_size=6))  # repeat some pairs
    return edges


@given(merged_weighted_edge_lists())
@settings(max_examples=80, deadline=None)
def test_mu_has_the_bytes_of_the_edge_loop(edges):
    g = build_graph(edges)
    mu = np.zeros(g.n)
    for u, v, w in g.edges:
        mu[u] += w
        mu[v] += w
    assert g.mu.tobytes() == mu.tobytes()


@st.composite
def edge_sets(draw):
    """(n, eu, ev): unique pairs eu < ev, sorted, on n vertices.  Paths in a
    shuffled vertex order, the same with one vertex left isolated or split
    into two components, single edges, and random pairs."""
    n = draw(st.integers(min_value=2, max_value=40))
    order = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["path", "isolated", "two", "single", "random"]))
    if shape == "path":
        pairs = list(zip(order, order[1:]))
    elif shape == "isolated":  # a path on all but the last vertex of the order
        pairs = list(zip(order[:-1], order[1:-1]))
    elif shape == "two":  # a path cut once
        cut = draw(st.integers(1, n - 1))
        pairs = list(zip(order[:cut], order[1:cut])) + list(zip(order[cut:], order[cut + 1:]))
    elif shape == "single":
        pairs = [tuple(order[:2])]
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
    keys = sorted({min(u, v) * n + max(u, v) for u, v in pairs if u != v})
    eu, ev = np.divmod(np.array(keys, dtype=np.int64), n)
    return n, eu, ev


@given(edge_sets())
@settings(max_examples=300, deadline=None)
def test_connected_agrees_with_scipy_connected_components(case):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, eu, ev = case
    links = csr_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n))
    assert graphs._connected(n, eu, ev) == (connected_components(links, directed=False)[0] == 1)


def test_a_disconnected_graph_is_refused_and_a_connected_one_kept():
    # one component the wrong way round (the least vertex last on the path),
    # two components, an isolated vertex
    assert build_graph([(3, 2, 1.0), (2, 1, 1.0), (1, 0, 1.0)]).n == 4
    for edges in ([(2, 1, 1.0), (1, 3, 1.0), (0, 4, 1.0)], [(0, 1, 1.0), (1, 2, 1.0), (4, 3, 1.0)]):
        with pytest.raises(DisconnectedGraph, match="not connected"):
            build_graph(edges)
    g = generate(FamilySpec("path", 3))
    with pytest.raises(DisconnectedGraph, match="not connected"):
        graphs._finish_graph(5, g.eu, g.ev, g.ew)  # vertex 4 has no edge


def test_replace_starts_with_an_empty_cache():
    g = generate(FamilySpec("gasket", 2))
    g.edges
    assert g._cache
    h = replace(g, meta={})
    assert h._cache == {}
    assert h.edges == g.edges
    assert h._cache["edges"] is not g._cache["edges"]


def test_unknown_family_is_a_config_error():
    with pytest.raises(RangeError, match="unknown family 'moebius'") as info:
        FamilySpec("moebius", 1)
    assert isinstance(info.value, ConfigError)


def assert_same_graph(g, ref):
    """g has the reference graph's edges, mu bytes, coordinates and meta."""
    assert g.n == ref.n
    assert repr(g.edges) == repr(ref.edges)
    assert g.mu.tobytes() == ref.mu.tobytes()
    assert repr(g.coords) == repr(ref.coords)
    assert repr(g.meta) == repr(ref.meta)


@given(merged_weighted_edge_lists(), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_build_graph_matches_the_dict_loop(edges, scale, shift):
    # relabeled ids (scale > 1 or shift > 0) go through meta["labels"]
    edges = [(scale * u + shift, scale * v + shift, w) for u, v, w in edges]
    assert_same_graph(build_graph(edges), graph_oracle.build_graph(edges))


_WIRING_BASES = [("path", 2), ("path", 6), ("gasket", 1), ("gasket", 2),
                 ("vicsek", 1), ("carpet", 1), ("wired_carpet", 1)]


@st.composite
def wiring_bases(draw):
    """Weighted graphs with unequal conductances and merged parallel
    entries, or family graphs, which carry coordinates and meta to remap."""
    if draw(st.booleans()):
        return build_graph(draw(merged_weighted_edge_lists()))
    family, level = draw(st.sampled_from(_WIRING_BASES))
    return generate(FamilySpec(family, level, weight=draw(st.sampled_from([1.0, 1.0 / 3.0]))))


def wiring_sets(g):
    """Vertex sets of g to wire, repeats allowed: any set, a singleton, one
    holding vertex 0, or one holding both ends of an edge."""
    vertex = st.integers(0, g.n - 1)
    some = st.lists(vertex, max_size=g.n)
    u, v = int(g.eu[0]), int(g.ev[-1])
    return st.one_of(
        st.lists(vertex, min_size=1, max_size=g.n),
        vertex.map(lambda x: [x]),
        some.map(lambda s: [0, *s]),
        st.integers(0, g.num_edges - 1).flatmap(
            lambda i: some.map(lambda s: [int(g.eu[i]), *s, int(g.ev[i])])),
        st.just([v, u]),
    )


@given(wiring_bases(), st.data())
@settings(max_examples=120, deadline=None)
def test_wire_vertices_matches_the_dict_loop(g, data):
    # a second wiring of the wired graph, as set_resistance makes, meets
    # the merged vertex's missing coordinate and the parallel edges
    for _ in range(2):
        S = data.draw(wiring_sets(g))
        if len(set(S)) == g.n:
            with pytest.raises(DisconnectedGraph, match="fewer than two vertices"):
                wire_vertices(g, S)
            return
        h = wire_vertices(g, S)
        assert_same_graph(h, graph_oracle.wire_vertices(g, S))
        g = h


@pytest.mark.parametrize("family,level", ORACLE_CASES)
def test_neighbour_rows_follow_the_edge_loop(family, level):
    g = generate(FamilySpec(family, level))
    adj, _ = graph_oracle.adjacency(g)
    nbr, deg = walk_sim._neighbour_table(g)
    want = np.repeat(np.arange(g.n)[:, None], max(map(len, adj)), axis=1)
    for v, a in enumerate(adj):
        want[v, : len(a)] = a
    np.testing.assert_array_equal(nbr, want)
    np.testing.assert_array_equal(deg, [len(a) for a in adj])


def test_weighted_walker_keeps_the_neighbour_table():
    g = build_graph([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5), (2, 3, 1.0)])
    w = walk_sim._Walker(g)
    np.testing.assert_array_equal(w.nbr, [[1, 2, 0], [0, 2, 1], [0, 1, 3], [2, 3, 3]])
    np.testing.assert_array_equal(w.cums[2], [2.0 / 3.5, 2.5 / 3.5, 1.0])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_wired_carpet_start_rep_is_the_first_nearest_to_the_centre(level):
    g = generate(FamilySpec("wired_carpet", level))
    wired = g.meta["wired_vertex"]
    interior = [v for v in range(g.n) if v != wired]
    best = min(interior, key=lambda i: (g.coords[i][0] - 0.5) ** 2 + (g.coords[i][1] - 0.5) ** 2)
    assert g.meta["start_reps"] == sorted({wired, best})
    assert wired not in g.coords and len(g.coords) == g.n - 1


@pytest.mark.parametrize("use", [
    lambda g: effective_resistance(g, 0, 5),
    lambda g: exact_chain.excursion_visit_law(g, 0, 5, 4),
    lambda g: walk_group(g, 0, [RngStream(1, 0)], 20),
    lambda g: (g.edges, g.coords),
], ids=["solver", "exact-chain", "walker", "python-views"])
def test_a_graph_and_its_memo_are_freed_without_the_cycle_collector(use):
    # nothing a graph memoizes refers back to it, so dropping the last
    # reference frees the graph and, with it, an n x n factor at once
    g = generate(FamilySpec("gasket", 3))
    use(g)
    assert g._cache
    alive = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_jsonable_gives_a_dataclass_its_attribute_dict_and_leaves_the_class():
    @dataclass
    class Inner:
        x: np.ndarray

    @dataclass
    class Outer:
        inner: Inner
        k: np.int64
        t: tuple

    got = graphs._jsonable(Outer(Inner(np.array([0.5, 1.0])), np.int64(3), (np.float64(2.0),)))
    assert got == {"inner": {"x": [0.5, 1.0]}, "k": 3, "t": [2.0]}
    assert type(got["k"]) is int and type(got["t"][0]) is float
    assert graphs._jsonable(Outer) is Outer
