import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings

from wellcovered import (
    CapExceeded,
    FactorAnalysis,
    Graph,
    IsolatableWitness,
    VertexSet,
    build_product_witness,
    cartesian_product,
    check_disjoint_mis,
    enumerate_greedy_decompositions,
    generate_all_graphs,
    is_greedy_decomposition,
    is_maximal_independent,
    isolatable_vertices,
    analyze_factor,
    verify_pair,
    witness_inputs,
    witness_invariants,
)
from wellcovered import independence, theorem

from oracles import (
    brute_maximal_independent_sets,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graphs,
    record_walks,
)


def decoded(witness, s):
    return sorted(witness.index_map.decode(p) for p in s)


# --- FactorAnalysis ---------------------------------------------------------


def test_analyze_factor_survives_pickle_with_every_part_computed(monkeypatch):
    graph = cycle_graph(6)
    fresh = analyze_factor(graph)
    expected = (fresh.report, fresh.isolatable)
    copy = pickle.loads(pickle.dumps(analyze_factor(graph)))

    def forbidden(*args, **kwargs):
        raise AssertionError("factor work after unpickling")

    for module, name in (
        (theorem, "is_well_covered"),
        (theorem, "isolatable_vertices"),
        (independence, "_search"),
        (independence, "_isolating_set"),
        (independence, "_walk"),
        (theorem, "_walk"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    assert (copy.report, copy.isolatable) == expected
    assert copy == fresh
    assert [f.name for f in fields(FactorAnalysis)] == ["graph", "cap", "report", "isolatable"]


# --- witness_inputs ---------------------------------------------------------


def test_witness_inputs_p3_p3():
    p3 = path_graph(3)
    inputs = witness_inputs(p3, p3)
    assert inputs is not None
    assert inputs.iso.vertex == 0
    assert frozenset(inputs.iso.certificate) == {2}
    assert frozenset(inputs.column_big) == {0, 2}
    assert frozenset(inputs.column_small) == {1}


def test_witness_inputs_absent_without_isolatable_factor():
    assert witness_inputs(cycle_graph(5), path_graph(3)) is None


def test_witness_inputs_absent_for_well_covered_cofactor():
    assert witness_inputs(path_graph(3), cycle_graph(4)) is None


# --- build_product_witness ----------------------------------------------------


def test_witness_p3_square_worked_example():
    p3 = path_graph(3)
    iso = IsolatableWitness(2, VertexSet.of(3, [0]))
    witness = build_product_witness(
        p3, iso, p3, VertexSet.of(3, [0, 2]), VertexSet.of(3, [1])
    )
    assert decoded(witness, witness.core) == [(0, 0), (0, 2)]
    assert len(witness.core_big) == 4
    assert len(witness.core_small) == 3
    assert decoded(witness, witness.gaps_big) == [(1, 1)]
    assert len(witness.gaps_small) == 0
    assert len(witness.patch_small) == 0
    assert decoded(witness, witness.patch_big) == [(1, 1)]
    assert decoded(witness, witness.big) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
    assert decoded(witness, witness.small) == [(0, 0), (0, 2), (2, 1)]
    assert all(witness_invariants(p3, p3, witness).values())
    # maximality confirmed against the subset oracle on the 9-vertex grid
    grid, _ = cartesian_product(p3, p3)
    oracle = brute_maximal_independent_sets(grid.n, grid.edges())
    assert frozenset(witness.big) in oracle
    assert frozenset(witness.small) in oracle


def test_witness_k1_left_factor_degenerates():
    k1 = Graph(1, (0,))
    p3 = path_graph(3)
    iso = IsolatableWitness(0, VertexSet.empty(1))
    witness = build_product_witness(
        k1, iso, p3, VertexSet.of(3, [0, 2]), VertexSet.of(3, [1])
    )
    assert len(witness.gaps_big) == 0 and len(witness.gaps_small) == 0
    assert len(witness.big) == 2 and len(witness.small) == 1
    assert all(witness_invariants(k1, p3, witness).values())


def test_witness_c6_square_at_scale():
    c6 = cycle_graph(6)
    iso = IsolatableWitness(4, VertexSet.of(6, [0, 2]))
    witness = build_product_witness(
        c6, iso, c6, VertexSet.of(6, [0, 2, 4]), VertexSet.of(6, [0, 3])
    )
    assert len(witness.big) > len(witness.small)
    assert all(witness_invariants(c6, c6, witness).values())


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(random_graphs(min_n=1, max_n=9), random_graphs(min_n=1, max_n=9))
def test_witness_invariants_hold_on_random_pairs(g, h):
    for left, right in ((g, h), (h, g)):
        inputs = witness_inputs(left, right)
        if inputs is None:
            continue
        witness = build_product_witness(
            left, inputs.iso, right, inputs.column_big, inputs.column_small
        )
        assert all(witness_invariants(left, right, witness).values())


def test_witness_precondition_errors():
    p3 = path_graph(3)
    big = VertexSet.of(3, [0, 2])
    small = VertexSet.of(3, [1])
    with pytest.raises(ValueError, match="isolate"):
        build_product_witness(p3, IsolatableWitness(1, VertexSet.of(3, [0])), p3, big, small)
    with pytest.raises(ValueError, match="maximal"):
        build_product_witness(
            p3, IsolatableWitness(0, VertexSet.of(3, [2])), p3, big, VertexSet.of(3, [0])
        )
    with pytest.raises(ValueError, match="decreasing"):
        build_product_witness(
            p3, IsolatableWitness(0, VertexSet.of(3, [2])), p3, small, big
        )
    with pytest.raises(CapExceeded):
        build_product_witness(
            p3, IsolatableWitness(0, VertexSet.of(3, [2])), p3, big, small, product_cap=4
        )


def test_witness_core_size_gap_matches_columns():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    seen = 0
    for g in corpus:
        for h in corpus:
            inputs = witness_inputs(g, h)
            if inputs is None:
                continue
            seen += 1
            witness = build_product_witness(
                g, inputs.iso, h, inputs.column_big, inputs.column_small
            )
            gap = len(inputs.column_big) - len(inputs.column_small)
            assert len(witness.core_big) - len(witness.core_small) == gap
            assert len(witness.big) - len(witness.small) >= gap
            assert witness.gaps_small <= witness.gaps_big
            checks = witness_invariants(g, h, witness)
            assert all(checks.values()), checks
    assert seen > 50  # the corpus provides plenty of applicable pairs


# --- check_disjoint_mis ----------------------------------------------------------


def test_disjoint_mis_k2_square():
    report = check_disjoint_mis(complete_graph(2), complete_graph(2))
    assert report.hypotheses_met
    assert report.passed
    assert report.g_result.all_have_disjoint and report.h_result.all_have_disjoint
    assert report.g_result.disjoint_equal_size and report.h_result.disjoint_equal_size


def test_disjoint_mis_walks_each_factor_once(monkeypatch):
    walked = record_walks(monkeypatch)
    assert check_disjoint_mis(complete_graph(2), complete_graph(2)).passed
    assert walked == [2, 2]  # the disjoint-set listing of each factor, nothing else


def test_disjoint_mis_p3_hypotheses_fail():
    report = check_disjoint_mis(path_graph(3), path_graph(3))
    assert not report.hypotheses_met
    assert not report.g_isolatable_free
    assert report.passed is None and report.g_result is None


def test_disjoint_mis_c4_hypotheses_fail_on_isolatable():
    report = check_disjoint_mis(cycle_graph(4), cycle_graph(4))
    assert not report.hypotheses_met
    assert not report.g_isolatable_free


def test_disjoint_mis_quantified_small_corpus():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    met = 0
    for i, g in enumerate(corpus):
        for h in corpus[i:]:
            report = check_disjoint_mis(g, h)
            if report.hypotheses_met:
                met += 1
                assert report.passed, (g, h)
    assert met >= 1  # K2 with K2 at minimum


# --- greedy decomposition facts used by the disjoint-MIS argument ----------------


def _isolatable_free_graphs(max_n):
    return [
        g
        for n in range(1, max_n + 1)
        for g in generate_all_graphs(n)
        if not isolatable_vertices(g)
    ]


def test_second_block_is_maximal_in_whole_graph():
    for graph in _isolatable_free_graphs(6):
        for dec in enumerate_greedy_decompositions(graph):
            if len(dec.blocks) >= 2:
                assert is_maximal_independent(graph, dec.blocks[1])


def test_swapping_first_two_blocks_stays_greedy():
    for graph in _isolatable_free_graphs(6):
        for dec in enumerate_greedy_decompositions(graph):
            if len(dec.blocks) >= 2:
                swapped = type(dec)(
                    dec.n,
                    (dec.blocks[1], dec.blocks[0]) + dec.blocks[2:],
                )
                assert is_greedy_decomposition(graph, swapped)


# --- verify_pair -------------------------------------------------------------------


def test_verify_pair_p3_square():
    verdict = verify_pair(path_graph(3), path_graph(3))
    assert not verdict.product_report.verdict
    assert verdict.product_report.alpha == 5
    assert verdict.product_report.min_maximal == 3
    assert verdict.theorem_consistent
    assert verdict.violation is None
    assert verdict.witness is not None and not verdict.witness_swapped
    assert len(verdict.witness.big) == 5 and len(verdict.witness.small) == 3


def test_verify_pair_k2_square():
    verdict = verify_pair(complete_graph(2), complete_graph(2))
    assert verdict.product_report.verdict
    assert verdict.g_report.verdict and verdict.h_report.verdict
    assert verdict.theorem_consistent
    assert verdict.witness is None


def test_verify_pair_c4_p3_consistent():
    verdict = verify_pair(cycle_graph(4), path_graph(3))
    assert verdict.g_report.verdict  # C4 well-covered, claim holds trivially
    assert verdict.theorem_consistent
    # C4 has isolatable vertices and P3 is not well-covered: witness applies
    assert verdict.witness is not None and not verdict.witness_swapped


def test_verify_pair_swapped_orientation():
    # P5 is not well-covered; K1 is well-covered but isolatable, so only the
    # reversed orientation supports the constructive witness.
    verdict = verify_pair(path_graph(5), Graph(1, (0,)))
    assert verdict.witness is not None
    assert verdict.witness_swapped


def test_verify_pair_product_cap():
    with pytest.raises(CapExceeded):
        verify_pair(cycle_graph(6), cycle_graph(6), product_cap=30)


def test_verify_pair_witness_agrees_with_enumeration():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    for i, g in enumerate(corpus):
        for h in corpus[i:]:
            verdict = verify_pair(g, h)
            assert verdict.theorem_consistent
            assert verdict.violation is None
            if verdict.witness is not None:
                assert not verdict.product_report.verdict
