import builtins
import dis
import json
import pickle
import random
from dataclasses import fields
from time import perf_counter
from types import CodeType, FunctionType

import pytest
from hypothesis import given, settings

from wellcovered import (
    CapExceeded,
    FactorAnalysis,
    Graph,
    IsolatableWitness,
    build_product_witness,
    cartesian_product,
    from_graph6,
    generate_all_graphs,
    is_connected,
    is_independent,
    is_maximal_independent,
    is_well_covered,
    isolatable_vertices,
    verify_pair,
    witness_invariants,
)
from wellcovered import graphs, independence, theorem
from wellcovered.graphs import component_masks, iter_bits

from paper_lemmas import (
    check_disjoint_mis,
    enumerate_greedy_decompositions,
    is_greedy_decomposition,
)
from oracles import (
    brute_maximal_independent_sets,
    complete_graph,
    cycle_graph,
    fixed_orientation_witness,
    full_walk_report,
    mask_of,
    path_graph,
    random_graphs,
    record_walks,
    reference_product_witness,
)
from test_independence import orbit_rows
from test_render import GOLDEN_PATH


def decoded(witness, s):
    return sorted(divmod(p, witness.right.n) for p in iter_bits(s))


def verify(g, h, cap=36):
    return verify_pair(FactorAnalysis(g, cap), FactorAnalysis(h, cap))


# --- FactorAnalysis ---------------------------------------------------------


FACTOR_PARTS = ("report", "isolatable", "first_isolatable", "components", "component_orbits")


def forbid_factor_searches(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("factor search")

    for module, name in (
        (theorem, "is_well_covered"),
        (theorem, "isolatable_vertices"),
        (theorem, "_isolatable"),
        (theorem, "compact_components"),
        (theorem, "stabilizer_orbits"),
        (independence, "_largest"),
        (independence, "_smallest"),
        (independence, "_isolating_set"),
        (independence, "_walk"),
    ):
        monkeypatch.setattr(module, name, forbidden)


def test_factor_analysis_survives_pickle_with_every_part_computed(monkeypatch):
    graph = cycle_graph(6)
    fresh = FactorAnalysis(graph)
    expected = [getattr(fresh, part) for part in FACTOR_PARTS]
    analysis = FactorAnalysis(graph)
    for part in FACTOR_PARTS:
        getattr(analysis, part)
    copy = pickle.loads(pickle.dumps(analysis))

    forbid_factor_searches(monkeypatch)
    assert [getattr(copy, part) for part in FACTOR_PARTS] == expected
    assert copy == fresh
    assert [f.name for f in fields(FactorAnalysis)] == ["graph", "cap"]


def test_factor_analysis_checks_its_cap_and_searches_nothing_until_read(monkeypatch):
    graph = path_graph(5)
    expected = [getattr(FactorAnalysis(graph), part) for part in FACTOR_PARTS]
    with monkeypatch.context() as patched:
        forbid_factor_searches(patched)
        analysis = FactorAnalysis(graph)
        with pytest.raises(CapExceeded, match="graph order 5 exceeds enumeration cap 4"):
            FactorAnalysis(graph, 4)
    assert [getattr(analysis, part) for part in FACTOR_PARTS] == expected
    assert expected[2] == expected[1][0]  # the first isolatable vertex heads the list


def test_kept_left_orbit_parts_join_to_product_orbits_built_afresh():
    # Each analysis keeps the left part of a component's product orbits per
    # right component order, shared by every right component of that order.
    analyses = [FactorAnalysis(g) for n in range(1, 6) for g in generate_all_graphs(n)]
    parts = {part.adj: (a, i, part) for a in analyses for i, (_, part) in enumerate(a.components)}
    for g, i, left in parts.values():
        for h, j, right in parts.values():
            kept = independence.product_orbits(g.left_orbits(i, right.n), h.component_orbits[j])
            assert kept == orbit_rows(left, right), (left, right)


# --- the lemma's hypotheses -----------------------------------------------------


def test_witness_hypotheses_p3_p3():
    p3 = FactorAnalysis(path_graph(3))
    iso, report = p3.first_isolatable, p3.report
    assert iso is not None and not report.verdict
    assert iso.vertex == 0
    assert iso.certificate == mask_of([2])
    assert report.witness_max == mask_of([0, 2])
    assert report.witness_min == mask_of([1])


def test_witness_hypotheses_absent_without_isolatable_factor():
    assert FactorAnalysis(cycle_graph(5)).first_isolatable is None
    assert fixed_orientation_witness(cycle_graph(5), path_graph(3)) is None


def test_witness_hypotheses_absent_for_well_covered_cofactor():
    assert FactorAnalysis(path_graph(3)).first_isolatable is not None
    assert FactorAnalysis(cycle_graph(4)).report.verdict
    assert fixed_orientation_witness(path_graph(3), cycle_graph(4)) is None


# --- build_product_witness ----------------------------------------------------


def test_witness_p3_square_worked_example():
    p3 = path_graph(3)
    iso = IsolatableWitness(2, mask_of([0]))
    witness = build_product_witness(p3, iso, p3, mask_of([0, 2]), mask_of([1]))
    assert decoded(witness, witness.core) == [(0, 0), (0, 2)]
    assert witness.core_big.bit_count() == 4
    assert witness.core_small.bit_count() == 3
    assert decoded(witness, witness.gaps_big) == [(1, 1)]
    assert witness.gaps_small == 0
    assert witness.patch_small == 0
    assert decoded(witness, witness.patch_big) == [(1, 1)]
    assert decoded(witness, witness.big) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
    assert decoded(witness, witness.small) == [(0, 0), (0, 2), (2, 1)]
    assert all(witness_invariants(witness).values())
    # maximality confirmed against the subset oracle on the 9-vertex grid
    grid = cartesian_product(p3, p3)
    oracle = brute_maximal_independent_sets(grid.n, grid.edges())
    assert frozenset(iter_bits(witness.big)) in oracle
    assert frozenset(iter_bits(witness.small)) in oracle


def test_witness_k1_left_factor_degenerates():
    k1 = Graph(1, (0,))
    p3 = path_graph(3)
    iso = IsolatableWitness(0, 0)
    witness = build_product_witness(k1, iso, p3, mask_of([0, 2]), mask_of([1]))
    assert witness.gaps_big == 0 and witness.gaps_small == 0
    assert witness.big.bit_count() == 2 and witness.small.bit_count() == 1
    assert all(witness_invariants(witness).values())


def test_witness_c6_square_at_scale():
    c6 = cycle_graph(6)
    iso = IsolatableWitness(4, mask_of([0, 2]))
    witness = build_product_witness(c6, iso, c6, mask_of([0, 2, 4]), mask_of([0, 3]))
    assert witness.big.bit_count() > witness.small.bit_count()
    assert all(witness_invariants(witness).values())


@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(random_graphs(min_n=1, max_n=9), random_graphs(min_n=1, max_n=9))
def test_witness_invariants_hold_on_random_pairs(g, h):
    for left, right in ((g, h), (h, g)):
        witness = fixed_orientation_witness(left, right)
        if witness is None:
            continue
        assert all(witness_invariants(witness).values())


def test_witness_precondition_errors():
    p3 = path_graph(3)
    big = mask_of([0, 2])
    small = mask_of([1])
    with pytest.raises(ValueError, match=r"isolate the claimed vertex: deletion leaves \(2,\)"):
        build_product_witness(p3, IsolatableWitness(1, mask_of([0])), p3, big, small)
    with pytest.raises(ValueError, match="not independent"):
        build_product_witness(p3, IsolatableWitness(2, mask_of([0, 1])), p3, big, small)
    with pytest.raises(ValueError, match="out of range"):
        build_product_witness(p3, IsolatableWitness(0, 1 << 3), p3, big, small)
    with pytest.raises(ValueError, match="out of range"):
        build_product_witness(p3, IsolatableWitness(0, mask_of([2])), p3, 0b1101, small)
    with pytest.raises(ValueError, match="maximal"):
        build_product_witness(p3, IsolatableWitness(0, mask_of([2])), p3, big, mask_of([0]))
    with pytest.raises(ValueError, match="decreasing"):
        build_product_witness(p3, IsolatableWitness(0, mask_of([2])), p3, small, big)
    with pytest.raises(ValueError, match="decreasing"):
        build_product_witness(p3, IsolatableWitness(0, mask_of([2])), p3, big, big)


def test_internal_builder_checks_no_input_but_still_checks_its_sets(monkeypatch):
    """``_build_witness`` takes a factor's own search results unchecked:
    with the input checks patched to raise, the orientation rule still
    builds its witness.  Corrupted inputs still end in the final checks."""
    p3, iso = path_graph(3), IsolatableWitness(0, mask_of([2]))
    big, small = mask_of([0, 2]), mask_of([1])
    expected = build_product_witness(p3, iso, p3, big, small)

    def forbidden(*args, **kwargs):
        raise AssertionError("an input check ran")

    for name in ("_validate_isolatable", "is_maximal_independent"):
        monkeypatch.setattr(theorem, name, forbidden)
    assert theorem._build_witness(p3, iso, p3, big, small) == expected
    witness, swapped = theorem._orient_witness(FactorAnalysis(p3), FactorAnalysis(p3))
    assert (witness, swapped) == (expected, False)
    for column_big, column_small in (
        (small, big),             # no positive size gap
        (big, big),
        (mask_of([0, 1]), small), # a column that is not independent
    ):
        with pytest.raises(theorem.WitnessCheckError):
            theorem._build_witness(p3, iso, p3, column_big, column_small)


def _matches_the_reference(left, right, witness):
    """The mask kernel's product sets equal the masks of the reference
    construction over Python sets, set by set."""
    expected = reference_product_witness(
        cartesian_product(witness.left, witness.right), left, witness.isolatable_vertex,
        list(iter_bits(witness.isolating_set)),
        list(iter_bits(witness.column_big)), list(iter_bits(witness.column_small)),
        right.n,
    )
    return {name: getattr(witness, name) for name in theorem.PRODUCT_SETS} == expected


def test_mask_witness_matches_the_vertex_set_reference_on_random_pairs():
    rng, compared = random.Random(1992), 0
    for _ in range(200):
        g, h = (
            Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
            ])
            for n, density in ((rng.randint(1, 7), rng.random()) for _ in range(2))
        )
        for left, right in ((g, h), (h, g)):
            witness = fixed_orientation_witness(left, right)
            if witness is not None:
                assert _matches_the_reference(left, right, witness)
                compared += 1
    assert compared > 100


def test_mask_witness_matches_the_vertex_set_reference_on_the_witness_pool():
    """Every 20th pair of the benchmark's witness pool, by recorded cost."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        pool = json.load(handle)["witness-large"]["pool"]
    for g6_g, g6_h, _, _ in sorted(pool, key=lambda entry: entry[2])[::20]:
        g, h = from_graph6(g6_g), from_graph6(g6_h)
        witness, swapped = theorem._orient_witness(FactorAnalysis(g, 36), FactorAnalysis(h, 36))
        assert _matches_the_reference(*((h, g) if swapped else (g, h)), witness)


def test_witness_invariants_reject_a_witness_of_other_factors():
    p3 = path_graph(3)
    witness = fixed_orientation_witness(p3, p3)
    # P3 x P2 has 6 vertices, fewer than the sets' 9-vertex host.
    with pytest.raises(ValueError, match="do not match the factors"):
        witness_invariants(witness._replace(right=path_graph(2)))
    # P3 x P4 holds every mask, read in other rows, so the checks fail.
    checks = witness_invariants(witness._replace(right=path_graph(4)))
    assert not checks["big_maximal_independent"] and not checks["small_maximal_independent"]
    for out_of_range in (
        witness._replace(core_big=witness.core_big | 1 << p3.n * p3.n),
        witness._replace(isolating_set=1 << witness.left.n),
        witness._replace(column_small=1 << witness.right.n),
    ):
        with pytest.raises(ValueError, match="do not match the factors"):
            witness_invariants(out_of_range)
    for vertex in (-3, 3):  # -3 would read vertex 0's rows
        with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
            witness_invariants(witness._replace(isolatable_vertex=vertex))


def test_witness_invariants_take_the_product_edges_from_the_factors():
    """With no product to read, the checks still see every edge of G x H:
    dropping any vertex of ``big`` leaves it undominated, and adding to
    ``small`` any vertical neighbour (g', h) of a member (g, h), g' ~ g in
    the left factor, makes it dependent."""
    c6 = cycle_graph(6)
    witnesses = [
        fixed_orientation_witness(path_graph(3), path_graph(3)),
        build_product_witness(
            c6, IsolatableWitness(4, mask_of([0, 2])), c6, mask_of([0, 2, 4]), mask_of([0, 3])
        ),
    ]
    mutants = 0
    for witness in witnesses:
        assert all(witness_invariants(witness).values())
        n_right = witness.right.n
        for v in iter_bits(witness.big):
            checks = witness_invariants(witness._replace(big=witness.big ^ 1 << v))
            assert not checks["big_maximal_independent"]
            mutants += 1
        for v in iter_bits(witness.small):
            g, h = divmod(v, n_right)
            for neighbour in iter_bits(witness.left.adj[g]):
                small = witness.small | 1 << neighbour * n_right + h
                checks = witness_invariants(witness._replace(small=small))
                assert not checks["small_maximal_independent"]
                mutants += 1
    assert mutants > 30


def test_certificate_checks_reach_no_constructor_or_search(monkeypatch):
    """The trusted base of every certificate check: the row test
    ``_maximal_independent_rows`` (of which the mask test is the one-row
    case), the deletion test of ``_validate_isolatable`` and set sizes.
    With every constructor and search patched to raise, the product
    constructor and the row greedy among them, the checks still give their
    answers, so no check builds a product."""
    p3, c6 = path_graph(3), cycle_graph(6)
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        g6_g, g6_h, _, _ = min(json.load(handle)["witness-large"]["pool"], key=lambda e: e[2])
    pool_pair = FactorAnalysis(from_graph6(g6_g)), FactorAnalysis(from_graph6(g6_h))
    witnesses = [
        fixed_orientation_witness(p3, p3),
        build_product_witness(
            c6, IsolatableWitness(4, mask_of([0, 2])), c6,
            mask_of([0, 2, 4]), mask_of([0, 3]),
        ),
        theorem._orient_witness(*pool_pair)[0],
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate check reached a constructor or a search")

    for module, names in (
        (independence, (
            "_greedy_rows", "_greedy_within", "_walk", "_largest", "_smallest", "_isolating_set",
        )),
        (theorem, ("_greedy_rows", "_isolatable", "cartesian_product")),
        (graphs, ("cartesian_product",)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    for witness in witnesses:
        assert all(witness_invariants(witness).values())
    spoiled = witnesses[0]._replace(small=witnesses[0].core)
    assert not witness_invariants(spoiled)["small_maximal_independent"]
    assert is_independent(p3, mask_of([0, 2])) and is_independent(p3, 0)
    assert not is_independent(p3, mask_of([0, 1]))
    assert is_maximal_independent(p3, mask_of([1]))
    assert not is_maximal_independent(p3, mask_of([0]))
    assert not is_maximal_independent(p3, mask_of([0, 1]))
    theorem._validate_isolatable(p3, IsolatableWitness(0, mask_of([2])))
    for iso, message in (
        (IsolatableWitness(3, mask_of([0])), "vertex 3 out of range"),
        (IsolatableWitness(2, mask_of([0, 1])), "set is not independent"),
        (IsolatableWitness(1, mask_of([0])), r"does not isolate .* leaves \(2,\)"),
    ):
        with pytest.raises(ValueError, match=message):
            theorem._validate_isolatable(p3, iso)


def _global_loads(code):
    """The global names ``code`` and every code object nested in it look up."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _global_loads(const)
    return names


def test_certificate_checks_look_up_only_builtins_and_graphs_primitives():
    """The trusted base by structure: every global name the certificate
    checks look up is a builtin, ``PRODUCT_SETS`` or a function defined in
    ``wellcovered.graphs``, so a checker can import ``graphs`` alone."""
    for check in (theorem.witness_invariants, theorem._validate_isolatable):
        for name in _global_loads(check.__code__):
            if name == "PRODUCT_SETS":
                continue
            if name not in vars(theorem):
                assert hasattr(builtins, name), (check.__name__, name)
                continue
            value = vars(theorem)[name]
            assert isinstance(value, FunctionType), (check.__name__, name)
            assert value.__module__ == "wellcovered.graphs", (check.__name__, name)
    for check in (
        is_independent, is_maximal_independent, graphs._maximal_independent_within,
        graphs._maximal_independent_rows, graphs._neighborhood_rows,
    ):
        assert check.__module__ == "wellcovered.graphs"
    assert not hasattr(independence, "_maximal_independent_within")
    for name in ("stabilizer_orbits", "_automorphism", "product_orbits"):
        assert not hasattr(graphs, name), name


def test_witness_core_size_gap_matches_columns():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    seen = 0
    for g in corpus:
        for h in corpus:
            witness = fixed_orientation_witness(g, h)
            if witness is None:
                continue
            seen += 1
            gap = witness.column_big.bit_count() - witness.column_small.bit_count()
            assert witness.core_big.bit_count() - witness.core_small.bit_count() == gap
            assert witness.big.bit_count() - witness.small.bit_count() >= gap
            assert witness.gaps_small & ~witness.gaps_big == 0
            checks = witness_invariants(witness)
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
    verdict = verify(path_graph(3), path_graph(3))
    assert not verdict.product_report.verdict
    assert verdict.product_report.alpha == 5
    assert verdict.product_report.min_maximal == 3
    assert verdict.theorem_consistent
    assert verdict.witness is not None and not verdict.witness_swapped
    assert verdict.witness.big.bit_count() == 5 and verdict.witness.small.bit_count() == 3


def test_verify_pair_k2_square():
    verdict = verify(complete_graph(2), complete_graph(2))
    assert verdict.product_report.verdict
    assert verdict.g_analysis.report.verdict and verdict.h_analysis.report.verdict
    assert verdict.theorem_consistent
    assert verdict.witness is None


def test_verify_pair_c4_p3_consistent():
    verdict = verify(cycle_graph(4), path_graph(3))
    assert verdict.g_analysis.report.verdict  # C4 well-covered, claim holds trivially
    assert verdict.theorem_consistent
    # C4 has isolatable vertices and P3 is not well-covered: witness applies
    assert verdict.witness is not None and not verdict.witness_swapped


def test_verify_pair_swapped_orientation():
    # P5 is not well-covered; K1 is well-covered but isolatable, so only the
    # reversed orientation supports the constructive witness.
    verdict = verify(path_graph(5), Graph(1, (0,)))
    assert verdict.witness is not None
    assert verdict.witness_swapped


def test_verify_pair_checks_the_largest_component_product_against_the_smaller_cap(
    monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("search before the cap check")

    monkeypatch.setattr(theorem, "is_well_covered", forbidden)
    monkeypatch.setattr(independence, "is_well_covered", forbidden)
    p3 = path_graph(3)
    for caps in ((36, 4), (4, 36)):
        g, h = (FactorAnalysis(p3, cap) for cap in caps)
        with pytest.raises(CapExceeded, match="graph order 9 exceeds enumeration cap 4"):
            verify_pair(g, h)


def test_verify_pair_witness_agrees_with_enumeration():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    for i, g in enumerate(corpus):
        for h in corpus[i:]:
            verdict = verify(g, h)
            assert verdict.theorem_consistent
            if verdict.witness is not None:
                assert not verdict.product_report.verdict


def _interleaved_union(rng, max_n=6):
    """A random graph of order <= max_n with at least two components, whose
    labels are shuffled so that the components interleave."""
    sizes = [rng.randint(1, max_n - 1)]
    while sum(sizes) < max_n and (len(sizes) < 2 or rng.random() < 0.5):
        sizes.append(rng.randint(1, max_n - sum(sizes)))
    n = sum(sizes)
    label = rng.sample(range(n), n)
    edges, base = [], 0
    for size in sizes:
        # A path through the part keeps it connected; the rest is random.
        edges += [
            (label[base + i], label[base + j])
            for i in range(size) for j in range(i + 1, size)
            if j == i + 1 or rng.random() < 0.5
        ]
        base += size
    return Graph.from_edges(n, edges)


def test_component_product_reports_match_the_whole_product_search():
    """The report joined from the component products, and the sizes summed
    over them in both orders of the pair with one dict shared by all pairs
    as a scan shares it, against one search of the whole product, on seeded
    disconnected factors whose components interleave."""
    rng = random.Random(1204)
    sizes, components = {}, 0
    for _ in range(300):
        g, h = _interleaved_union(rng), _interleaved_union(rng)
        assert not is_connected(g) and not is_connected(h)
        verdict = verify(g, h)
        product = cartesian_product(g, h)
        whole = is_well_covered(product)
        assert verdict.product_report == whole, (g, h)
        assert (verdict.product_order, verdict.product_size) == (product.n, product.edge_count)
        for left, right in ((g, h), (h, g)):
            found = theorem._product_sizes(FactorAnalysis(left), FactorAnalysis(right), sizes)
            assert found == (whole.alpha, whole.min_maximal), (left, right)
        components += len(list(component_masks(product)))
    # Fewer entries than the components of G x H alone, though H x G ran too.
    assert len(sizes) < components


def test_product_searches_consult_the_factor_orbits(monkeypatch):
    # C5 x C5: Aut(C5) x Aut(C5) is transitive, so the root's orbit row
    # holds all 25 vertices and the searches drop siblings by it.
    real, consulted = theorem.is_well_covered, []

    class Counted(tuple):
        def __getitem__(self, start):
            consulted.append(start)
            return tuple.__getitem__(self, start)

    def search(graph, cap, orbits=None):
        if graph.n < 25:  # a factor's own search takes no orbits
            assert orbits is None
            return real(graph, cap)
        assert orbits[0][0] == graph.full_mask
        return real(graph, cap, Counted(orbits))

    monkeypatch.setattr(theorem, "is_well_covered", search)
    c5 = cycle_graph(5)
    verdict = verify(c5, c5)
    assert consulted
    assert verdict.product_report == full_walk_report(cartesian_product(c5, c5))


def test_connected_pair_builds_only_its_search_product(monkeypatch):
    # The search builds the component product G x H; the witness, in either
    # orientation, runs on the factors' rows and builds none.
    real, built = theorem.cartesian_product, []

    def recorded(left, right):
        built.append((left.n, right.n))
        return real(left, right)

    monkeypatch.setattr(theorem, "cartesian_product", recorded)
    k1, p3 = complete_graph(1), path_graph(3)
    verdict = verify(k1, p3)  # K1 is isolatable and P3 is not well-covered
    assert not verdict.witness_swapped and built == [(1, 3)]
    assert all(witness_invariants(verdict.witness).values())
    built.clear()
    verdict = verify(p3, k1)  # a swapped witness lives in H x G
    assert verdict.witness_swapped and built == [(3, 1)]
    assert all(witness_invariants(verdict.witness).values())


def test_k1_times_k37_takes_milliseconds():
    # 37! automorphisms of K37: one search per orbit row, none listed.
    begin = perf_counter()
    verdict = verify(complete_graph(1), complete_graph(37), cap=37)
    assert perf_counter() - begin < 0.5
    assert verdict.product_report.verdict and verdict.product_report.alpha == 1
