import random
from time import perf_counter

import networkx as nx
import pytest
from hypothesis import given, settings

from wellcovered import (
    Graph,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    from_graph6,
    is_connected,
    is_independent,
    to_graph6,
)
from wellcovered.corpus import generate_all_graphs
from wellcovered.graphs import (
    _rectangle_mask, component_masks, iter_bits, product_orbits, stabilizer_orbits,
)

from paper_lemmas import delete_closed_neighborhood, induced_subgraph, is_clique
from oracles import (
    brute_automorphisms,
    brute_stabilizer_orbits,
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


def test_induced_subgraph_identity():
    c4 = cycle_graph(4)
    sub, back = induced_subgraph(c4, VertexSet.full(4))
    assert sub == c4
    assert back.kept == (0, 1, 2, 3)


def test_induced_subgraph_path_endpoints():
    sub, _ = induced_subgraph(path_graph(3), VertexSet.of(3, [0, 2]))
    assert sub.n == 2 and sub.edge_count == 0


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
    prod = cartesian_product(k2, k2)
    assert prod.n == 4 and prod.edge_count == 4
    assert set(prod.edges()) == _product_edges_by_definition(k2, k2)
    assert [prod.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert prod.neighbors(1 * 2 + 1) == (0 * 2 + 1, 1 * 2 + 0)  # (1, 1) ~ (0, 1), (1, 0)


def test_product_p3_p3_is_grid():
    p3 = path_graph(3)
    prod = cartesian_product(p3, p3)
    assert prod.n == 9 and prod.edge_count == 12
    assert set(prod.edges()) == _product_edges_by_definition(p3, p3)


def test_product_with_k1_is_identity():
    h = cycle_graph(5)
    prod = cartesian_product(Graph(1, (0,)), h)
    assert prod.n == h.n
    assert set(prod.edges()) == set(h.edges())
    assert prod.neighbors(0 * h.n + 3) == h.neighbors(3)


def test_product_edge_count_formula():
    graphs = [path_graph(2), path_graph(4), cycle_graph(3), cycle_graph(5), empty_graph(3)]
    for g in graphs:
        for h in graphs:
            prod = cartesian_product(g, h)
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
    product = cartesian_product(g, h)
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


def test_product_rejects_an_empty_factor():
    with pytest.raises(ValueError):
        cartesian_product(Graph(0, ()), path_graph(2))


def test_rectangle_of_independent_sets_is_independent():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    prod = cartesian_product(c5, c6)
    left = VertexSet.of(5, [0, 2])
    right = VertexSet.of(6, [1, 4])
    image = VertexSet(_rectangle_mask(left.mask, right.mask, 6), prod.n)
    assert len(image) == 4
    assert frozenset(image) == {g * 6 + h for g in left for h in right}
    assert is_independent(prod, image)


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


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(random_graphs(max_n=12))
def test_component_masks_match_networkx(graph):
    expected = sorted(
        sum(1 << v for v in part) for part in nx.connected_components(to_networkx(graph))
    )
    masks = list(component_masks(graph))
    assert sorted(masks) == expected
    assert masks == sorted(masks, key=lambda mask: mask & -mask)
    assert is_connected(graph) == (len(masks) <= 1)


# --- automorphism orbits ------------------------------------------------------


def _relabelled(graph: Graph, rng: random.Random) -> Graph:
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return Graph.from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def _orbit_sets(row, n: int) -> list[frozenset[int]]:
    if row is None:
        return [frozenset({v}) for v in range(n)]
    return [frozenset(iter_bits(mask)) for mask in row]


def test_stabilizer_orbits_match_brute_force_permutations():
    # Every class of order <= 5, in its canonical labels and relabelled, and
    # a seeded sample of order 6, at every prefix length k.
    rng = random.Random(17)
    graphs = [Graph(0, ())] + [g for n in range(1, 6) for g in generate_all_graphs(n)]
    graphs += [_relabelled(g, rng) for g in graphs]
    graphs += [_relabelled(g, rng) for g in rng.sample(generate_all_graphs(6), 30)]
    for graph in graphs:
        expected = brute_stabilizer_orbits(graph.n, brute_automorphisms(graph.n, graph.edges()))
        assert [_orbit_sets(row, graph.n) for row in stabilizer_orbits(graph)] == expected


def test_product_orbits_match_the_factor_groups_by_brute_force():
    # Entry s of G x H holds, for each vertex p >= s, its orbit under the
    # elements of Aut(G) x Aut(H) that fix every vertex below s.
    rng = random.Random(23)
    graphs = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    pairs = [rng.sample(graphs, 2) for _ in range(30)] + [(g, g) for g in rng.sample(graphs, 6)]
    for left, right in pairs:
        n_right, order = right.n, left.n * right.n
        lifted = [
            tuple(a[p // n_right] * n_right + b[p % n_right] for p in range(order))
            for a in brute_automorphisms(left.n, left.edges())
            for b in brute_automorphisms(right.n, right.edges())
        ]
        expected = brute_stabilizer_orbits(order, lifted)
        rows = product_orbits(stabilizer_orbits(left), stabilizer_orbits(right))
        assert len(rows) == order + 1
        for s, row in enumerate(rows):
            assert _orbit_sets(row, order)[s:] == expected[s][s:]


@pytest.mark.parametrize("graph", [complete_graph(12), empty_graph(12), complete_graph(37)])
def test_stabilizer_orbits_of_huge_groups_take_one_search_per_row(graph):
    # 12! and 37! automorphisms; row k fixes 0..k-1 and joins the rest.
    begin = perf_counter()
    rows = stabilizer_orbits(graph)
    assert perf_counter() - begin < 0.5
    n = graph.n
    for k, row in enumerate(rows):
        rest = (1 << n) - (1 << k)
        assert row == tuple(1 << v if v < k else rest for v in range(n))
