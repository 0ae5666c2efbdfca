import random

import pytest

from wellcovered import (
    CapExceeded,
    Graph,
    cartesian_product,
    is_maximal_independent,
    generate_all_graphs,
)
from wellcovered.graphs import iter_bits

from paper_lemmas import (
    diagonal_set,
    enumerate_greedy_decompositions,
    greedy_decomposition,
    is_greedy_decomposition,
)
from oracles import complete_graph, cycle_graph, empty_graph, path_graph


def blocks_as_sets(decomposition):
    return [frozenset(iter_bits(block)) for block in decomposition.blocks]


# --- greedy_decomposition -----------------------------------------------------


def test_greedy_p3_natural_order():
    dec = greedy_decomposition(path_graph(3))
    assert blocks_as_sets(dec) == [frozenset({0, 2}), frozenset({1})]


def test_greedy_p3_center_first():
    dec = greedy_decomposition(path_graph(3), order=(1, 0, 2))
    assert blocks_as_sets(dec) == [frozenset({1}), frozenset({0, 2})]


def test_greedy_k3():
    dec = greedy_decomposition(complete_graph(3))
    assert blocks_as_sets(dec) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_greedy_rejects_non_permutation():
    with pytest.raises(ValueError):
        greedy_decomposition(path_graph(3), order=(0, 1))
    with pytest.raises(ValueError):
        greedy_decomposition(path_graph(3), order=(0, 1, 1))


def test_greedy_is_valid_for_random_orders():
    rng = random.Random(7)
    for n in range(1, 6):
        for graph in generate_all_graphs(n):
            order = list(range(n))
            rng.shuffle(order)
            dec = greedy_decomposition(graph, order)
            assert is_greedy_decomposition(graph, dec)
            assert greedy_decomposition(graph, order) == dec


def test_greedy_on_order_zero():
    dec = greedy_decomposition(Graph(0, ()))
    assert dec.blocks == ()


# --- enumerate_greedy_decompositions -------------------------------------------


def test_enumerate_decompositions_p3():
    decs = {tuple(blocks_as_sets(d)) for d in enumerate_greedy_decompositions(path_graph(3))}
    assert decs == {
        (frozenset({0, 2}), frozenset({1})),
        (frozenset({1}), frozenset({0, 2})),
    }


def test_enumerate_decompositions_k2():
    decs = {tuple(blocks_as_sets(d)) for d in enumerate_greedy_decompositions(complete_graph(2))}
    assert decs == {
        (frozenset({0}), frozenset({1})),
        (frozenset({1}), frozenset({0})),
    }


def test_enumerate_decompositions_k1():
    decs = list(enumerate_greedy_decompositions(Graph(1, (0,))))
    assert len(decs) == 1
    assert blocks_as_sets(decs[0]) == [frozenset({0})]


def test_enumerate_decompositions_all_valid_and_distinct():
    for n in range(1, 6):
        for graph in generate_all_graphs(n):
            decs = list(enumerate_greedy_decompositions(graph))
            keys = {d.blocks for d in decs}
            assert len(keys) == len(decs)
            for dec in decs:
                assert is_greedy_decomposition(graph, dec)


def test_enumerate_decompositions_limit():
    limited = list(enumerate_greedy_decompositions(cycle_graph(6), limit=3))
    assert len(limited) == 3
    full = list(enumerate_greedy_decompositions(cycle_graph(6)))
    assert full[:3] == limited


def test_enumerate_decompositions_cap():
    with pytest.raises(CapExceeded):
        enumerate_greedy_decompositions(empty_graph(11))


# --- diagonal_set ---------------------------------------------------------------


def test_diagonal_p3_square():
    p3 = path_graph(3)
    prod = cartesian_product(p3, p3)
    dec = greedy_decomposition(p3)
    diag = diagonal_set(dec, dec, 3)
    assert frozenset(iter_bits(diag)) == {0, 2, 6, 8, 4}  # corners plus center
    assert is_maximal_independent(prod, diag)


def test_diagonal_k2_square():
    k2 = complete_graph(2)
    prod = cartesian_product(k2, k2)
    dec = greedy_decomposition(k2)
    diag = diagonal_set(dec, dec, 2)
    assert frozenset(iter_bits(diag)) == {0 * 2 + 0, 1 * 2 + 1}
    assert is_maximal_independent(prod, diag)


def test_diagonal_k1_factor():
    k1 = Graph(1, (0,))
    h = cycle_graph(5)
    diag = diagonal_set(greedy_decomposition(k1), greedy_decomposition(h), h.n)
    first_block = greedy_decomposition(h).blocks[0]
    assert diag == first_block  # row 0 of the product has the labels of H


def test_diagonal_host_mismatch():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        diagonal_set(greedy_decomposition(p3), greedy_decomposition(path_graph(4)), 3)


def test_diagonal_property_random_orders():
    rng = random.Random(99)
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    for _ in range(150):
        g = rng.choice(corpus)
        h = rng.choice(corpus)
        order_g = list(range(g.n))
        order_h = list(range(h.n))
        rng.shuffle(order_g)
        rng.shuffle(order_h)
        dec_g = greedy_decomposition(g, order_g)
        dec_h = greedy_decomposition(h, order_h)
        prod = cartesian_product(g, h)
        diag = diagonal_set(dec_g, dec_h, h.n)
        depth = min(len(dec_g.blocks), len(dec_h.blocks))
        expected_size = sum(
            dec_g.blocks[i].bit_count() * dec_h.blocks[i].bit_count() for i in range(depth)
        )
        assert diag.bit_count() == expected_size
        assert is_maximal_independent(prod, diag)
