import networkx as nx
import pytest
from hypothesis import given, settings

from wellcovered import (
    CapExceeded,
    Graph,
    ProductIndexMap,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    delete_closed_neighborhood,
    from_graph6,
    induced_subgraph,
    is_clique,
    is_connected,
    is_independent,
    to_graph6,
)

from oracles import (
    complete_graph,
    cycle_graph,
    empty_graph,
    nx_encode_graph6,
    nx_parse_graph6,
    path_graph,
    random_graphs,
)


# --- Graph construction invariants -----------------------------------------


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_rejects_loops():
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(1, (0b10,))


def test_edge_count_and_degrees():
    c5 = cycle_graph(5)
    assert c5.edge_count == 5
    assert [c5.degree(v) for v in range(5)] == [2] * 5
    assert c5.neighbors(0) == (1, 4)
    assert c5.has_edge(0, 4) and not c5.has_edge(0, 2)


# --- VertexSet --------------------------------------------------------------


def test_vertex_set_basics():
    s = VertexSet.of(5, [3, 0])
    assert s.members == (0, 3)
    assert len(s) == 2
    assert 3 in s and 1 not in s
    assert list(s) == [0, 3]
    assert s.complement().members == (1, 2, 4)
    assert s.with_vertex(1).members == (0, 1, 3)
    assert s.without_vertex(0).members == (3,)


def test_vertex_set_range_checks():
    with pytest.raises(ValueError):
        VertexSet.of(3, [3])
    with pytest.raises(ValueError):
        VertexSet(0b1000, 3)
    with pytest.raises(ValueError):
        VertexSet.of(3, [0]) | VertexSet.of(4, [0])


def test_vertex_set_operators():
    a = VertexSet.of(6, [0, 2, 4])
    b = VertexSet.of(6, [2, 3])
    assert (a | b).members == (0, 2, 3, 4)
    assert (a & b).members == (2,)
    assert (a - b).members == (0, 4)
    assert VertexSet.of(6, [2]) <= a
    assert not a <= b
    assert a.isdisjoint(VertexSet.of(6, [1, 5]))


# --- closed_neighborhood ----------------------------------------------------


def test_closed_neighborhood_center_of_path():
    p3 = path_graph(3)
    assert closed_neighborhood(p3, VertexSet.of(3, [1])).members == (0, 1, 2)


def test_closed_neighborhood_cycle_pair():
    c5 = cycle_graph(5)
    assert closed_neighborhood(c5, VertexSet.of(5, [0, 2])).members == (0, 1, 2, 3, 4)


def test_closed_neighborhood_empty():
    assert closed_neighborhood(cycle_graph(4), VertexSet.empty(4)).members == ()


def test_closed_neighborhood_monotone():
    c6 = cycle_graph(6)
    small = VertexSet.of(6, [0])
    large = VertexSet.of(6, [0, 3])
    assert closed_neighborhood(c6, small) <= closed_neighborhood(c6, large)


def test_closed_neighborhood_host_mismatch():
    with pytest.raises(ValueError):
        closed_neighborhood(path_graph(3), VertexSet.of(4, [0]))


# --- induced_subgraph / delete_closed_neighborhood --------------------------


def test_induced_subgraph_cycle_edge():
    sub, back = induced_subgraph(cycle_graph(5), VertexSet.of(5, [0, 4]))
    assert sub.n == 2 and list(sub.edges()) == [(0, 1)]
    assert back.kept == (0, 4)
    assert back.to_original(VertexSet.of(2, [1])).members == (4,)
    assert back.to_sub(VertexSet.of(5, [4])).members == (1,)


def test_induced_subgraph_identity():
    c4 = cycle_graph(4)
    sub, back = induced_subgraph(c4, VertexSet.full(4))
    assert sub == c4
    assert back.kept == (0, 1, 2, 3)


def test_induced_subgraph_path_endpoints():
    sub, _ = induced_subgraph(path_graph(3), VertexSet.of(3, [0, 2]))
    assert sub.n == 2 and sub.edge_count == 0


def test_subgraph_map_rejects_missing_vertex():
    _, back = induced_subgraph(path_graph(3), VertexSet.of(3, [0, 2]))
    with pytest.raises(ValueError):
        back.to_sub(VertexSet.of(3, [1]))


def test_delete_closed_neighborhood_cycle():
    remainder, back = delete_closed_neighborhood(cycle_graph(5), VertexSet.of(5, [2]))
    assert back.kept == (0, 4)
    assert list(remainder.edges()) == [(0, 1)]


def test_delete_closed_neighborhood_path_endpoint():
    remainder, back = delete_closed_neighborhood(path_graph(3), VertexSet.of(3, [0]))
    assert remainder.n == 1 and back.kept == (2,)


def test_delete_closed_neighborhood_empty_set_is_identity():
    c6 = cycle_graph(6)
    remainder, back = delete_closed_neighborhood(c6, VertexSet.empty(6))
    assert remainder == c6
    assert back.kept == tuple(range(6))


def test_delete_closed_neighborhood_requires_independent():
    with pytest.raises(ValueError):
        delete_closed_neighborhood(path_graph(3), VertexSet.of(3, [0, 1]))


# --- cartesian_product ------------------------------------------------------


def _product_edges_by_definition(g: Graph, h: Graph) -> set[tuple[int, int]]:
    edges = set()
    for g1 in range(g.n):
        for h1 in range(h.n):
            for g2 in range(g.n):
                for h2 in range(h.n):
                    adjacent = (g1 == g2 and h.has_edge(h1, h2)) or (
                        h1 == h2 and g.has_edge(g1, g2)
                    )
                    if adjacent:
                        a = g1 * h.n + h1
                        b = g2 * h.n + h2
                        edges.add((min(a, b), max(a, b)))
    return edges


def test_product_k2_k2_is_c4():
    k2 = complete_graph(2)
    prod, pmap = cartesian_product(k2, k2)
    assert prod.n == 4 and prod.edge_count == 4
    assert set(prod.edges()) == _product_edges_by_definition(k2, k2)
    assert [prod.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert pmap.encode(1, 1) == 3 and pmap.decode(3) == (1, 1)


def test_product_p3_p3_is_grid():
    p3 = path_graph(3)
    prod, _ = cartesian_product(p3, p3)
    assert prod.n == 9 and prod.edge_count == 12
    assert set(prod.edges()) == _product_edges_by_definition(p3, p3)


def test_product_with_k1_is_identity():
    h = cycle_graph(5)
    prod, pmap = cartesian_product(Graph(1, (0,)), h)
    assert prod.n == h.n
    assert set(prod.edges()) == set(h.edges())
    assert pmap.encode(0, 3) == 3


def test_product_edge_count_formula():
    graphs = [path_graph(2), path_graph(4), cycle_graph(3), cycle_graph(5), empty_graph(3)]
    for g in graphs:
        for h in graphs:
            prod, _ = cartesian_product(g, h)
            assert prod.edge_count == g.n * h.edge_count + h.n * g.edge_count


def to_networkx(graph):
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.n))
    reference.add_edges_from(graph.edges())
    return reference


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(random_graphs(min_n=1, max_n=9), random_graphs(min_n=1, max_n=9))
def test_product_matches_networkx_and_passes_the_full_check(g, h):
    reference = nx.cartesian_product(to_networkx(g), to_networkx(h))
    expected = {tuple(sorted((a * h.n + b, c * h.n + d))) for (a, b), (c, d) in reference.edges()}
    product, _ = cartesian_product(g, h)
    assert product.n == reference.number_of_nodes() == g.n * h.n
    assert set(product.edges()) == expected
    # The product skipped the construction checks; they must pass on it.
    assert Graph(product.n, product.adj) == product


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(random_graphs(max_n=9))
def test_graph6_matches_networkx_codec(graph):
    line = to_graph6(graph)
    assert line == nx_encode_graph6(graph.n, graph.edges())
    assert nx_parse_graph6(line) == (graph.n, set(graph.edges()))
    assert from_graph6(line) == graph


def test_product_cap_and_empty_factor():
    with pytest.raises(CapExceeded):
        cartesian_product(cycle_graph(6), cycle_graph(6), cap=30)
    with pytest.raises(ValueError):
        cartesian_product(Graph(0, ()), path_graph(2))


def test_rectangle_of_independent_sets_is_independent():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    prod, pmap = cartesian_product(c5, c6)
    left = VertexSet.of(5, [0, 2])
    right = VertexSet.of(6, [1, 4])
    image = pmap.rectangle(left, right)
    assert len(image) == 4
    assert is_independent(prod, image)


def test_index_map_bijection():
    pmap = ProductIndexMap(4, 7)
    seen = set()
    for g in range(4):
        for h in range(7):
            p = pmap.encode(g, h)
            assert pmap.decode(p) == (g, h)
            seen.add(p)
    assert seen == set(range(28))
    with pytest.raises(ValueError):
        pmap.encode(4, 0)
    with pytest.raises(ValueError):
        pmap.decode(28)


# --- is_clique / is_connected -----------------------------------------------


def test_is_clique():
    k3 = complete_graph(3)
    assert is_clique(k3, VertexSet.full(3))
    assert not is_clique(path_graph(3), VertexSet.of(3, [0, 2]))
    assert is_clique(path_graph(3), VertexSet.of(3, [1]))
    assert is_clique(path_graph(3), VertexSet.empty(3))


def test_is_connected():
    assert is_connected(path_graph(5))
    assert is_connected(Graph(1, (0,)))
    assert is_connected(Graph(0, ()))
    assert not is_connected(empty_graph(2))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
