import hashlib
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

import helpers
from trimanifold.complexes import (
    EMPTY,
    SimplicialComplex,
    _facet_graph_counts,
    _vertex_facets,
    boundary_complex,
    from_facets,
    is_pure,
)
from trimanifold.dualgraph import (
    components_minus,
    cut_node,
    dual_graph,
    high_degree_set,
    is_connected,
    is_cycle,
    is_tree,
    is_two_connected,
    to_dot,
)
from trimanifold.errors import PreconditionError, UnknownNodeError
from trimanifold.walkup import (
    is_stacked_ball,
    kuehnel_solid,
    kuehnel_torus,
    random_stacked_ball,
)


def test_solid_dual_is_a_cycle():
    g = dual_graph(kuehnel_solid(2))
    assert g.num_nodes == 7
    assert g.num_edges == 7
    assert is_cycle(g)
    assert not is_tree(g)
    assert all(g.degree(i) == 2 for i in range(7))


def test_path_ball_dual_is_a_path():
    g = dual_graph(helpers.path_ball(3, 6))
    assert g.num_nodes == 6
    assert g.num_edges == 5
    assert is_tree(g)
    assert not is_cycle(g)
    degrees = sorted(g.degree(i) for i in range(6))
    assert degrees == [1, 1, 2, 2, 2, 2]


def test_dual_graph_requires_purity():
    with pytest.raises(PreconditionError):
        dual_graph(from_facets([(0, 1, 2), (2, 3)]))


def test_dual_graph_is_memoised():
    x = random_stacked_ball(3, 20, seed=1)
    g = dual_graph(x)
    assert dual_graph(x) is g
    assert dual_graph(from_facets(x.facets)) == g


@given(helpers.small_complexes().filter(is_pure))
def test_adjacency_matches_brute_force(x):
    pairs = [
        (i, j)
        for (i, f), (j, h) in combinations(enumerate(x.facets), 2)
        if len(set(f) & set(h)) == len(f) - 1
    ]
    g = dual_graph(x)
    assert g.adjacency == tuple(
        tuple(sorted({j for p in pairs if i in p for j in p} - {i}))
        for i in range(len(x.facets))
    )
    assert g.num_edges == len(pairs)


def _counts_or_error(count, x):
    """``count`` on a fresh copy of ``x``, with nothing memoised, or the
    class and message it raises."""
    try:
        return count(SimplicialComplex(x.facets))
    except Exception as e:
        return type(e), str(e)


def _counts_by_graph(x):
    g = dual_graph(x)
    return g.num_edges, len(components_minus(g, ()))


def _assert_counts_match_the_graph(x):
    assert _counts_or_error(_facet_graph_counts, x) == _counts_or_error(_counts_by_graph, x)


@given(helpers.small_complexes())
def test_facet_graph_counts_match_the_graph(x):
    # impure input raises the class and message of dual_graph
    _assert_counts_match_the_graph(x)


def test_facet_graph_counts_match_the_graph_on_the_families():
    ball = random_stacked_ball(4, 30, seed=5)
    # f0 = f_d + d and f_d - 1 edges, as the solid has as many vertices as
    # facets and a cycle for its facet graph, yet two components
    beside = from_facets(ball.facets + helpers.shifted(kuehnel_solid(3), 100).facets)
    assert beside.num_vertices == len(beside.facets) + beside.dim
    assert not is_stacked_ball(beside)
    sphere = boundary_complex(helpers.simplex(3))
    cases = [
        *(x for _, x in helpers.corpus()),
        *(kuehnel_solid(d) for d in (2, 3, 5)),
        *(kuehnel_torus(d) for d in (2, 3, 5)),
        *(random_stacked_ball(d, 40, seed=s) for d in (2, 4) for s in (1, 2)),
        helpers.path_ball(3, 9),
        beside,
        from_facets(sphere.facets + helpers.shifted(sphere, 10).facets),
        *(from_facets((i,) for i in range(n)) for n in (1, 2, 3)),
        EMPTY,
        SimplicialComplex(((),)),
        from_facets([(0, 1, 2), (2, 3)]),
    ]
    for x in cases:
        _assert_counts_match_the_graph(x)
    assert _facet_graph_counts(SimplicialComplex(beside.facets)) == (len(beside.facets) - 1, 2)


def test_node_bounds_checked():
    g = dual_graph(helpers.simplex(2))
    with pytest.raises(UnknownNodeError):
        g.degree(1)
    with pytest.raises(UnknownNodeError):
        g.induced([0, 3])


def test_connectivity():
    g = dual_graph(kuehnel_solid(3))
    assert is_connected(g)
    split = helpers.graph_from_edges(g.facets, [])
    assert not is_connected(split)


def test_two_connected_against_deletion_oracle():
    cases = [
        dual_graph(kuehnel_solid(2)),
        dual_graph(kuehnel_solid(3)),
        dual_graph(helpers.path_ball(2, 5)),
        dual_graph(helpers.star_ball(3, 5)),
        dual_graph(boundary_complex(helpers.simplex(3))),
    ]
    for seed in range(6):
        cases.append(dual_graph(random_stacked_ball(3, 8, seed=seed)))
    for g in cases:
        assert is_two_connected(g) == helpers.two_connected_by_deletion(g)
        assert cut_node(g) == helpers.first_cut_by_deletion(g)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 9 nodes, a few extra edges, and
    shuffled node ids."""
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        node = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(node, node), max_size=n))
        edges += [(i, j) for i, j in extra if i != j]
    label = draw(st.permutations(range(n)))
    return helpers.graph_from_edges(
        [(i,) for i in range(n)], [(label[i], label[j]) for i, j in edges]
    )


@given(connected_graphs())
def test_cut_node_against_deletion_oracle(g):
    assert cut_node(g) == helpers.first_cut_by_deletion(g)
    assert is_two_connected(g) == helpers.two_connected_by_deletion(g)


@given(connected_graphs(), st.data())
def test_components_minus_partitions_the_kept_nodes_in_order(g, data):
    removed = data.draw(st.sets(st.integers(0, g.num_nodes - 1)))
    comps = components_minus(g, removed)
    kept = [i for i in range(g.num_nodes) if i not in removed]
    assert sorted(i for c in comps for i in c) == kept
    assert all(c and c == sorted(c) for c in comps)
    firsts = [c[0] for c in comps]
    assert firsts == sorted(firsts)
    where = {i: k for k, c in enumerate(comps) for i in c}
    assert all(where[i] == where[j] for i in kept for j in g.adjacency[i] if j in where)


def test_two_connected_small_graphs():
    one = helpers.graph_from_edges(((0, 1),), [])
    assert not is_two_connected(one)
    assert cut_node(one) is None
    # a triangle is the smallest two-connected graph
    nodes = ((0,), (1,), (2,))
    tri = helpers.graph_from_edges(nodes, [(0, 1), (1, 2), (0, 2)])
    assert is_two_connected(tri)
    assert cut_node(tri) is None
    path = helpers.graph_from_edges(nodes, [(0, 1), (1, 2)])
    assert not is_two_connected(path)
    assert cut_node(path) == 1


def test_components_minus():
    g = dual_graph(helpers.path_ball(2, 5))
    # removing the middle of a path leaves two pieces
    pieces = components_minus(g, {2})
    assert len(pieces) == 2
    assert sorted(len(p) for p in pieces) == [2, 2]
    whole = components_minus(g, set())
    assert [sorted(c) for c in whole] == [[0, 1, 2, 3, 4]]


def test_high_degree_set():
    g = dual_graph(helpers.star_ball(3, 5))
    assert high_degree_set(g) == frozenset({0})
    assert high_degree_set(dual_graph(kuehnel_solid(2))) == frozenset()


def test_vertex_facet_subgraph_is_tree_on_solids():
    x = kuehnel_solid(3)
    for v in x.vertices:
        sub = dual_graph(x).induced(_vertex_facets(x)[v])
        assert sub.num_nodes == x.num_vertices - x.dim
        assert is_tree(sub)


def test_vertex_facet_subgraphs_have_no_size_cliff():
    # 8002 facets: scanning every edge of the whole graph per vertex took
    # 4.6 s (Python 3.11, 2-vCPU host)
    sphere = boundary_complex(random_stacked_ball(3, 4000, seed=1))
    dual_graph(sphere)
    t0 = perf_counter()
    for v in sphere.vertices:
        dual_graph(sphere).induced(_vertex_facets(sphere)[v])
    dt = perf_counter() - t0
    assert dt < 1.0, f"per-vertex subgraphs took {dt:.2f} s, budget 1 s"


def test_induced_renumbers_densely():
    g = dual_graph(helpers.path_ball(2, 5))
    sub = g.induced([1, 2, 3])
    assert sub.num_nodes == 3
    assert sub.adjacency == ((1,), (0, 2), (1,))
    assert sub.facets == tuple(g.facets[i] for i in (1, 2, 3))


def test_to_dot_shape():
    g = dual_graph(kuehnel_solid(2))
    dot = to_dot(g)
    assert dot.startswith("graph dual {")
    assert dot.rstrip().endswith("}")
    assert dot.count("--") == g.num_edges
    assert dot.count("label=") == g.num_nodes
    # same input, same bytes
    assert dot == to_dot(dual_graph(kuehnel_solid(2)))


def test_to_dot_bytes_are_pinned():
    sphere = boundary_complex(random_stacked_ball(3, 400, seed=1))
    dot = to_dot(dual_graph(sphere)).encode()
    assert hashlib.sha256(dot).hexdigest() == (
        "e784e3d1ed7bff043b58748ec9d80a4b065942777e4d330dcd78df4158012ae1"
    )
