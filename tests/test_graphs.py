import random

import networkx as nx
import pytest
from hypothesis import given, settings

from wellcovered import (
    Graph,
    cartesian_product,
    from_graph6,
    is_connected,
    is_independent,
    is_maximal_independent,
    to_graph6,
)
from wellcovered.graphs import (
    _closed_mask,
    _maximal_independent_rows,
    _maximal_independent_within,
    _neighborhood_rows,
    _rectangle_mask,
    _rows,
    _rows_mask,
    component_masks,
    iter_bits,
)
from wellcovered.independence import _greedy_rows, _greedy_within

from paper_lemmas import delete_closed_neighborhood, induced_subgraph, is_clique
from oracles import (
    complete_graph,
    cycle_graph,
    empty_graph,
    mask_of,
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
    assert c5.adj == (0b10010, 0b00101, 0b01010, 0b10100, 0b01001)


# --- closed neighborhoods and the range check -------------------------------


def test_closed_neighborhood_center_of_path():
    assert tuple(iter_bits(_closed_mask(path_graph(3), 0b010))) == (0, 1, 2)


def test_closed_neighborhood_cycle_pair():
    assert tuple(iter_bits(_closed_mask(cycle_graph(5), 0b00101))) == (0, 1, 2, 3, 4)


def test_closed_neighborhood_empty():
    assert _closed_mask(cycle_graph(4), 0) == 0


def test_closed_neighborhood_monotone():
    c6 = cycle_graph(6)
    assert _closed_mask(c6, 0b000001) & ~_closed_mask(c6, 0b001001) == 0


def test_independence_checks_reject_out_of_range_masks():
    p3 = path_graph(3)
    for check in (is_independent, is_maximal_independent):
        for mask in (1 << 3, -1):
            with pytest.raises(ValueError, match="out of range"):
                check(p3, mask)


# --- induced_subgraph / delete_closed_neighborhood --------------------------


def test_induced_subgraph_cycle_edge():
    sub, back = induced_subgraph(cycle_graph(5), mask_of([0, 4]))
    assert sub.n == 2 and list(sub.edges()) == [(0, 1)]
    assert back.kept == (0, 4)


def test_induced_subgraph_identity():
    c4 = cycle_graph(4)
    sub, back = induced_subgraph(c4, 0b1111)
    assert sub == c4
    assert back.kept == (0, 1, 2, 3)


def test_induced_subgraph_path_endpoints():
    sub, _ = induced_subgraph(path_graph(3), mask_of([0, 2]))
    assert sub.n == 2 and sub.edge_count == 0


def test_delete_closed_neighborhood_cycle():
    remainder, back = delete_closed_neighborhood(cycle_graph(5), mask_of([2]))
    assert back.kept == (0, 4)
    assert list(remainder.edges()) == [(0, 1)]


def test_delete_closed_neighborhood_path_endpoint():
    remainder, back = delete_closed_neighborhood(path_graph(3), mask_of([0]))
    assert remainder.n == 1 and back.kept == (2,)


def test_delete_closed_neighborhood_empty_set_is_identity():
    c6 = cycle_graph(6)
    remainder, back = delete_closed_neighborhood(c6, 0)
    assert remainder == c6
    assert back.kept == tuple(range(6))


def test_delete_closed_neighborhood_requires_independent():
    with pytest.raises(ValueError):
        delete_closed_neighborhood(path_graph(3), mask_of([0, 1]))


# --- cartesian_product ------------------------------------------------------


def _product_edges_by_definition(g: Graph, h: Graph) -> set[tuple[int, int]]:
    edges = set()
    for g1 in range(g.n):
        for h1 in range(h.n):
            for g2 in range(g.n):
                for h2 in range(h.n):
                    adjacent = (g1 == g2 and h.adj[h1] >> h2 & 1) or (
                        h1 == h2 and g.adj[g1] >> g2 & 1
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
    assert prod.adj[1 * 2 + 1] == 1 << 0 * 2 + 1 | 1 << 1 * 2 + 0  # (1, 1) ~ (0, 1), (1, 0)


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
    assert prod.adj == h.adj


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
    image = _rectangle_mask(mask_of([0, 2]), mask_of([1, 4]), 6)
    assert frozenset(iter_bits(image)) == {g * 6 + h for g in (0, 2) for h in (1, 4)}
    assert is_independent(prod, image)


# --- row forms of product sets --------------------------------------------


def test_row_forms_match_the_mask_forms_on_the_product():
    """Each row form, on the rows of a product set, gives the mask form's
    answer on the built product G x H: the round trip, the closed
    neighbourhood, the greedy extension and maximality within a random
    ``allowed``, for K1, edgeless, disconnected and random factors.
    Maximality is also checked against its definition on the product's
    adjacency, on candidates that fail each of its three conditions."""
    rng = random.Random(1204)
    factors = [
        Graph(1, (0,)), empty_graph(3), Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]),
        path_graph(4), cycle_graph(5),
    ]
    for _ in range(6):
        n = rng.randint(1, 6)
        factors.append(Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]))
    verdicts, failures = set(), set()
    for left in factors:
        for right in factors:
            product = cartesian_product(left, right)
            n_left, n_right = left.n, right.n

            def rows(mask):
                return _rows(mask, n_left, n_right)

            for _ in range(4):
                mask = rng.getrandbits(product.n)
                allowed = rng.getrandbits(product.n) | mask
                assert len(rows(mask)) == n_left and all(row >> n_right == 0 for row in rows(mask))
                assert _rows_mask(rows(mask), n_right) == mask
                closed = mask | _rows_mask(_neighborhood_rows(left, right, rows(mask)), n_right)
                assert closed == _closed_mask(product, mask)
                assert closed == mask | sum(
                    1 << u for u in range(product.n)
                    if any(product.adj[v] >> u & 1 for v in iter_bits(mask))
                )
                chosen = _greedy_within(product, allowed & mask, 0)
                grown = _greedy_within(product, allowed, chosen)
                assert grown == _rows_mask(
                    _greedy_rows(left, right, rows(allowed), rows(chosen)), n_right
                )
                outside, addable = product.full_mask & ~allowed, allowed & ~grown
                for candidate in (
                    chosen, grown, grown ^ 1 << rng.randrange(product.n),
                    grown | outside & -outside, grown | addable & -addable, grown & grown - 1,
                ):
                    verdict = _maximal_independent_within(product, allowed, candidate)
                    verdicts.add(verdict)
                    assert verdict == _maximal_independent_rows(
                        left, right, rows(allowed), rows(candidate)
                    )
                    failed = {
                        "outside": candidate & ~allowed != 0,
                        "edge": any(product.adj[v] & candidate for v in iter_bits(candidate)),
                        "undominated": any(
                            not product.adj[v] & candidate for v in iter_bits(allowed & ~candidate)
                        ),
                    }
                    assert verdict == (not any(failed.values()))
                    failures.update(kind for kind, hit in failed.items() if hit)
    assert verdicts == {True, False}
    assert failures == {"outside", "edge", "undominated"}


# --- is_clique / is_connected -----------------------------------------------


def test_is_clique():
    k3 = complete_graph(3)
    assert is_clique(k3, 0b111)
    assert not is_clique(path_graph(3), mask_of([0, 2]))
    assert is_clique(path_graph(3), mask_of([1]))
    assert is_clique(path_graph(3), 0)


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
