import pytest

from wellcovered import (
    VertexSet,
    enumerate_maximal_independent_sets,
    generate_all_graphs,
    independence_number,
    is_independent,
    isolatable_vertices,
)

from paper_lemmas import clique_remainder, is_clique, swap_step
from oracles import complete_graph, cycle_graph


def alpha_sets(graph):
    alpha = independence_number(graph)
    return [s for s in enumerate_maximal_independent_sets(graph) if len(s) == alpha]


# --- clique_remainder -----------------------------------------------------------


def test_clique_remainder_c5():
    c5 = cycle_graph(5)
    remainder, back = clique_remainder(c5, VertexSet.of(5, [0, 2]), 0)
    assert back.kept == (0, 4)
    assert remainder.n == 2 and remainder.edge_count == 1


def test_clique_remainder_c6_degenerates():
    # C6 has isolatable vertices, so the order-two guarantee does not apply.
    c6 = cycle_graph(6)
    remainder, back = clique_remainder(c6, VertexSet.of(6, [0, 2, 4]), 0)
    assert back.kept == (0,)
    assert remainder.n == 1


def test_clique_remainder_k2_whole_graph():
    k2 = complete_graph(2)
    remainder, back = clique_remainder(k2, VertexSet.of(2, [0]), 0)
    assert back.kept == (0, 1)
    assert remainder.edge_count == 1


def test_clique_remainder_distinct_precondition_errors():
    c6 = cycle_graph(6)
    with pytest.raises(ValueError, match="maximum"):
        clique_remainder(c6, VertexSet.of(6, [0, 3]), 0)  # maximal but not maximum
    with pytest.raises(ValueError, match="not in the given set"):
        clique_remainder(c6, VertexSet.of(6, [0, 2, 4]), 1)
    with pytest.raises(ValueError, match="maximal"):
        clique_remainder(c6, VertexSet.of(6, [0, 2]), 0)  # independent, not maximal


def test_member_always_survives():
    for n in range(2, 6):
        for graph in generate_all_graphs(n):
            for chosen in alpha_sets(graph):
                for x in chosen:
                    _, back = clique_remainder(graph, chosen, x)
                    assert x in back.kept


def test_clique_remainder_order_two_when_no_isolatable_vertex():
    for n in range(1, 7):
        for graph in generate_all_graphs(n):
            if isolatable_vertices(graph):
                continue
            for chosen in alpha_sets(graph):
                for x in chosen:
                    remainder, back = clique_remainder(graph, chosen, x)
                    assert remainder.n >= 2
                    assert is_clique(remainder, VertexSet.full(remainder.n))


def test_clique_remainder_order_eight_random_sample():
    # Exhaustive class generation stops at order 7; cover order 8 with a
    # seeded sample of labeled graphs.
    import random

    from wellcovered import Graph

    rng = random.Random(2718)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    checked = 0
    for _ in range(300):
        density = rng.choice([0.2, 0.35, 0.5, 0.65])
        edges = [e for e in pairs if rng.random() < density]
        graph = Graph.from_edges(8, edges)
        if isolatable_vertices(graph):
            continue
        for chosen in alpha_sets(graph):
            for x in chosen:
                remainder, _ = clique_remainder(graph, chosen, x)
                checked += 1
                assert remainder.n >= 2
                assert is_clique(remainder, VertexSet.full(remainder.n))
    assert checked > 50


# --- swap_step -------------------------------------------------------------------


def test_swap_step_c5():
    c5 = cycle_graph(5)
    swapped = swap_step(c5, VertexSet.of(5, [0, 2]), 0, VertexSet.of(5, [0, 3]))
    assert frozenset(swapped) == {2, 4}
    assert (swapped & VertexSet.of(5, [0, 3])).mask == 0


def test_swap_step_k2():
    k2 = complete_graph(2)
    swapped = swap_step(k2, VertexSet.of(2, [0]), 0, VertexSet.of(2, [0]))
    assert frozenset(swapped) == {1}


def test_swap_step_c6_rejects_small_remainder():
    c6 = cycle_graph(6)
    with pytest.raises(ValueError, match="fewer than two"):
        swap_step(c6, VertexSet.of(6, [0, 2, 4]), 0, VertexSet.of(6, [0, 3]))


def test_swap_step_properties():
    # With x in the partner set (the exchange argument's use case) a swap
    # vertex always exists: the remainder is a clique meeting the partner
    # only in x.  With x outside the partner the swap can be impossible, but
    # only when every other remainder vertex lies in the partner.
    for n in range(2, 6):
        for graph in generate_all_graphs(n):
            if isolatable_vertices(graph):
                continue
            partners = list(enumerate_maximal_independent_sets(graph))
            for chosen in alpha_sets(graph):
                for x in chosen:
                    remainder, back = clique_remainder(graph, chosen, x)
                    for partner in partners:
                        blocked = all(
                            w == x or w in partner for w in back.kept
                        )
                        if blocked:
                            assert x not in partner
                            with pytest.raises(ValueError, match="partner"):
                                swap_step(graph, chosen, x, partner)
                            continue
                        swapped = swap_step(graph, chosen, x, partner)
                        assert is_independent(graph, swapped)
                        assert len(swapped) == len(chosen)
                        if x in partner:
                            assert len(swapped & partner) == len(chosen & partner) - 1
                        else:
                            assert len(swapped & partner) == len(chosen & partner)
