import random
import sys
import types
from collections import Counter
from dataclasses import fields
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcovered import (
    CapExceeded,
    Graph,
    WellCoveredReport,
    cartesian_product,
    enumerate_maximal_independent_sets,
    from_graph6,
    generate_all_graphs,
    is_connected,
    is_independent,
    is_maximal_independent,
    is_well_covered,
    isolatable_vertices,
    mis_size_histogram,
)
from wellcovered import independence
from wellcovered.graphs import component_masks, iter_bits
from wellcovered.independence import _walk, product_orbits, stabilizer_orbits

from paper_lemmas import delete_closed_neighborhood
from oracles import (
    atlas_graphs,
    brute_automorphisms,
    brute_isolatable_vertices,
    brute_maximal_independent_sets,
    brute_stabilizer_orbits,
    complete_graph,
    cycle_graph,
    empty_graph,
    full_walk_report,
    mask_of,
    path_graph,
    random_graphs,
)


def mis_list(graph, cap=36):
    return [frozenset(iter_bits(s)) for s in enumerate_maximal_independent_sets(graph, cap)]


# --- is_independent / is_maximal_independent ---------------------------------


def test_is_independent():
    c4 = cycle_graph(4)
    assert is_independent(c4, mask_of([0, 2]))
    assert not is_independent(complete_graph(3), mask_of([0, 1]))
    assert is_independent(c4, 0)


def test_is_maximal_independent():
    p3 = path_graph(3)
    assert is_maximal_independent(p3, mask_of([1]))
    assert not is_maximal_independent(p3, mask_of([0]))
    assert is_maximal_independent(cycle_graph(5), mask_of([0, 2]))


# --- enumeration -------------------------------------------------------------


def test_enumeration_examples():
    assert mis_list(path_graph(3)) == [frozenset({0, 2}), frozenset({1})]
    assert mis_list(cycle_graph(4)) == [frozenset({0, 2}), frozenset({1, 3})]
    assert mis_list(complete_graph(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_enumeration_order_is_lexicographic():
    for graph in (cycle_graph(6), path_graph(5), empty_graph(4)):
        seqs = [tuple(iter_bits(s)) for s in enumerate_maximal_independent_sets(graph)]
        assert seqs == sorted(seqs)


def test_enumeration_matches_oracle_up_to_order_six():
    for n in range(1, 7):
        for graph in generate_all_graphs(n):
            expected = brute_maximal_independent_sets(graph.n, graph.edges())
            got = mis_list(graph)
            assert got == expected
            assert len(set(got)) == len(got)
            for s in got:
                assert is_maximal_independent(graph, mask_of(s))


def test_enumeration_matches_oracle_order_seven_atlas():
    for n, edges in atlas_graphs(7, 7):
        graph = Graph.from_edges(n, edges)
        assert mis_list(graph) == brute_maximal_independent_sets(n, edges)


def walk_masks(graph, universe=None, targets=None):
    masks = []
    assert _walk(graph, masks.append, universe, targets) is None
    return masks


def brute_walk(n, edges, universe, targets):
    """Masks of the maximal independent sets of G[universe] that dominate
    ``targets``, by the brute-force filter over the induced subgraph."""
    kept = [v for v in range(n) if universe >> v & 1]
    index = {v: i for i, v in enumerate(kept)}
    sub_edges = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    found = []
    for s in brute_maximal_independent_sets(len(kept), sub_edges):
        members = [kept[i] for i in s]
        dominated = 0
        for v in members:
            dominated |= closed[v]
        if not targets & ~dominated:
            found.append(sum(1 << v for v in members))
    return found


def test_walk_matches_oracle_on_induced_subgraphs():
    rng = random.Random(6681)
    for n, edges in atlas_graphs(1, 7):
        graph = Graph.from_edges(n, edges)
        whole = list(enumerate_maximal_independent_sets(graph))
        assert walk_masks(graph) == whole
        for universe in (0, graph.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
            expected = brute_walk(n, edges, universe, universe)
            assert walk_masks(graph, universe) == expected
            assert walk_masks(graph, universe, universe) == expected


def test_walk_with_targets_matches_oracle_and_stops_at_a_true_leaf():
    rng = random.Random(1204)
    for n, edges in atlas_graphs(1, 7):
        graph = Graph.from_edges(n, edges)
        for _ in range(3):
            universe = rng.getrandbits(n)
            targets = universe | rng.getrandbits(n)
            expected = brute_walk(n, edges, universe, targets)
            assert walk_masks(graph, universe, targets) == expected
            for stop_at in (1, 2):
                seen = []

                def leaf(mask):
                    seen.append(mask)
                    return len(seen) == stop_at and ("stop", mask)

                stopped = _walk(graph, leaf, universe, targets)
                assert seen == expected[:stop_at]
                if len(expected) >= stop_at:
                    assert stopped == ("stop", expected[stop_at - 1])
                else:
                    assert stopped is None


def test_enumeration_on_order_zero():
    assert mis_list(Graph(0, ())) == [frozenset()]


def test_enumeration_cap_is_eager():
    big = empty_graph(37)
    with pytest.raises(CapExceeded):
        enumerate_maximal_independent_sets(big)
    # permitted when raised explicitly
    assert len(list(enumerate_maximal_independent_sets(big, cap=37))) == 1


def test_early_termination_allowed():
    stream = enumerate_maximal_independent_sets(cycle_graph(6))
    assert next(stream) == mask_of([0, 2, 4])


# --- well-covered reports -------------------------------------------------------


def test_report_sizes_and_verdict_are_read_off_its_two_sets():
    assert [field.name for field in fields(WellCoveredReport)] == ["witness_max", "witness_min"]
    report = WellCoveredReport(0b101, 0b010)
    assert (report.alpha, report.min_maximal, report.verdict) == (2, 1, False)


def test_independence_number():
    assert is_well_covered(complete_graph(5)).alpha == 1
    assert is_well_covered(path_graph(3)).alpha == 2
    grid = cartesian_product(path_graph(3), path_graph(3))
    assert is_well_covered(grid).alpha == 5


def test_well_covered_c4():
    report = is_well_covered(cycle_graph(4))
    assert report.verdict and report.alpha == 2 and report.min_maximal == 2


def test_not_well_covered_p3():
    report = is_well_covered(path_graph(3))
    assert not report.verdict
    assert report.alpha == 2 and report.min_maximal == 1
    assert report.witness_max == mask_of([0, 2])
    assert report.witness_min == mask_of([1])


def test_not_well_covered_c6():
    report = is_well_covered(cycle_graph(6))
    assert not report.verdict
    assert report.alpha == 3 and report.min_maximal == 2
    assert report.witness_max == mask_of([0, 2, 4])
    assert report.witness_min == mask_of([0, 3])


def test_report_witnesses_are_first_in_enumeration_order():
    for n in range(1, 6):
        for graph in generate_all_graphs(n):
            report = is_well_covered(graph)
            sets = mis_list(graph)
            sizes = [len(s) for s in sets]
            assert report.alpha == max(sizes)
            assert report.min_maximal == min(sizes)
            assert frozenset(iter_bits(report.witness_max)) == next(
                s for s in sets if len(s) == report.alpha
            )
            assert frozenset(iter_bits(report.witness_min)) == next(
                s for s in sets if len(s) == report.min_maximal
            )
            assert report.verdict == (len(set(sizes)) == 1)


def test_search_report_matches_full_walk_on_atlas_and_order_zero():
    # Many atlas classes are disjoint unions, whose size histograms are
    # convolved from one walk per component; sizes come out ascending.
    for n, edges in [(0, [])] + atlas_graphs(1, 7):
        graph = Graph.from_edges(n, edges)
        assert is_well_covered(graph) == full_walk_report(graph)
        sizes = Counter(len(s) for s in brute_maximal_independent_sets(n, edges))
        assert list(mis_size_histogram(graph).items()) == sorted(sizes.items())
        assert is_well_covered(graph).alpha == max(sizes)


def test_search_report_matches_full_walk_on_small_products():
    # every ordered pair of classes of order <= 4, so every product has <= 16 vertices
    factors = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    for left in factors:
        for right in factors:
            product = cartesian_product(left, right)
            assert is_well_covered(product) == full_walk_report(product)


def test_search_report_matches_full_walk_on_large_products():
    # Products of 25 and 36 vertices, where the smallest-set search updates
    # its packing over longer runs of siblings than in the products above.
    rng = random.Random(12)
    five, six = ([g for g in generate_all_graphs(n) if is_connected(g)] for n in (5, 6))
    pairs = [rng.choices(five, k=2) for _ in range(20)] + [rng.choices(six, k=2) for _ in range(4)]
    for left, right in pairs:
        product = cartesian_product(left, right)
        assert is_well_covered(product) == full_walk_report(product)


def test_searches_with_orbits_match_the_searches_without():
    # Seeded factor pairs of order <= 5, many of them disconnected, plus
    # isomorphic pairs and edgeless, K1 and disconnected factors; each
    # component of each product is searched with the product's orbit rows
    # and without them, over the same component mask.
    rng = random.Random(31)
    graphs = [g for n in range(1, 6) for g in generate_all_graphs(n)]
    pairs = [rng.sample(graphs, 2) for _ in range(60)] + [(g, g) for g in rng.sample(graphs, 12)]
    pairs += [
        (empty_graph(4), cycle_graph(5)),
        (complete_graph(1), empty_graph(5)),
        (cycle_graph(5), complete_graph(1)),
        (from_graph6("C`"), from_graph6("C`")),  # 2K2 x 2K2
        (from_graph6("C`"), path_graph(3)),
    ]
    for left, right in pairs:
        product = cartesian_product(left, right)
        orbits = product_orbits(stabilizer_orbits(left), stabilizer_orbits(right))
        for part in component_masks(product):
            for search in (independence._largest, independence._smallest):
                assert search(product, part, orbits) == search(product, part), (left, right)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(random_graphs())
def test_search_report_matches_full_walk_on_random_graphs(graph):
    # The orbit rows of a disconnected graph may map one component onto
    # another; each component's search must still keep its first sets.
    report = full_walk_report(graph)
    assert is_well_covered(graph) == report
    assert is_well_covered(graph, 36, stabilizer_orbits(graph)) == report


def test_search_checks_cap_before_any_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("searched over the cap")

    for name in ("_largest", "_smallest"):
        monkeypatch.setattr(independence, name, forbidden)
    big = empty_graph(37)
    with pytest.raises(CapExceeded):
        is_well_covered(big)


def test_mis_size_histogram():
    assert mis_size_histogram(path_graph(3)) == {1: 1, 2: 1}
    assert mis_size_histogram(cycle_graph(6)) == {2: 3, 3: 2}
    # Five disjoint 5-cycles: one of the five 2-sets of each cycle.
    five_cycles = cartesian_product(from_graph6("D??"), from_graph6("DLo"))
    assert mis_size_histogram(five_cycles) == {10: 5**5}


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


# --- isolatable vertices -------------------------------------------------------


def test_isolatable_p3():
    witnesses = isolatable_vertices(path_graph(3))
    assert [(w.vertex, w.certificate) for w in witnesses] == [(0, mask_of([2])), (2, mask_of([0]))]


def test_isolatable_c5_empty():
    assert isolatable_vertices(cycle_graph(5)) == []


def test_isolatable_k1_via_empty_set():
    witnesses = isolatable_vertices(Graph(1, (0,)))
    assert len(witnesses) == 1
    assert witnesses[0].vertex == 0
    assert witnesses[0].certificate == 0


def lex_first_isolating_set(graph, x):
    """The lexicographically first maximal independent set of G - N[x] that
    dominates N(x), by brute force over the subsets of the residual, or None
    when x is not isolatable."""
    residual = [v for v in range(graph.n) if not graph.closed_adj[x] >> v & 1]
    found = []
    for r in range(len(residual) + 1):
        for combo in combinations(residual, r):
            mask = sum(1 << v for v in combo)
            if any(graph.adj[v] & mask for v in combo):
                continue
            dominated = mask
            for v in combo:
                dominated |= graph.adj[v]
            if all(dominated >> v & 1 for v in residual) and not graph.adj[x] & ~dominated:
                found.append(combo)
    return min(found, default=None)


def test_isolatable_matches_brute_force_and_certifies():
    for n, edges in atlas_graphs(1, 7):
        graph = Graph.from_edges(n, edges)
        witnesses = isolatable_vertices(graph)
        vertices = [w.vertex for w in witnesses]
        assert vertices == sorted(vertices)
        assert set(vertices) == brute_isolatable_vertices(n, edges)
        for w in witnesses:
            assert is_independent(graph, w.certificate)
            assert graph.closed_adj[w.vertex] & w.certificate == 0
            remainder, back = delete_closed_neighborhood(graph, w.certificate)
            assert back.kept == (w.vertex,)
            assert tuple(iter_bits(w.certificate)) == lex_first_isolating_set(graph, w.vertex)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(random_graphs())
def test_isolatable_matches_brute_force_on_random_graphs(graph):
    found = {w.vertex: tuple(iter_bits(w.certificate)) for w in isolatable_vertices(graph)}
    expected = {}
    for x in range(graph.n):
        certificate = lex_first_isolating_set(graph, x)
        if certificate is not None:
            expected[x] = certificate
    assert found == expected


def disjoint_union(*graphs):
    edges, offset = [], 0
    for graph in graphs:
        edges += [(offset + u, offset + v) for u, v in graph.edges()]
        offset += graph.n
    return Graph.from_edges(offset, edges)


def test_isolatable_on_disjoint_five_cycles_walks_no_graph(monkeypatch):
    # No vertex of C5 is isolatable, so for a vertex of the last cycle a
    # search of its residual would visit every maximal independent set of
    # the cycles before it; the local test answers first.  The two vertices
    # of P3 that are isolatable each cost one search that stops at its first
    # set.
    visits = []
    original = independence._walk

    def recorded(graph, leaf, universe=None, targets=None):
        seen = []
        visits.append(seen)

        def counted(mask):
            seen.append(mask)
            return leaf(mask)

        return original(graph, counted, universe, targets)

    monkeypatch.setattr(independence, "_walk", recorded)
    c5 = cycle_graph(5)
    assert isolatable_vertices(disjoint_union(*[c5] * 7)) == []
    assert visits == []
    witnesses = isolatable_vertices(disjoint_union(*[c5] * 6, path_graph(3)))
    cycles = [5 * k + v for k in range(6) for v in (0, 2)]
    assert [(w.vertex, tuple(iter_bits(w.certificate))) for w in witnesses] == [
        (30, tuple(cycles + [32])),
        (32, tuple(cycles + [30])),
    ]
    assert [len(seen) for seen in visits] == [1, 1]


def test_isolatable_cap_checked_before_any_walk(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("search started before the cap check")

    monkeypatch.setattr(independence, "_isolating_set", forbidden)
    graph = path_graph(4)
    with pytest.raises(CapExceeded):
        isolatable_vertices(graph, graph.n - 1)


# --- disjoint unions -------------------------------------------------------------


@st.composite
def shuffled_unions(draw):
    """Disjoint unions of 2-4 random graphs, relabelled by a random
    permutation so that the components' labels interleave."""
    parts = draw(st.lists(random_graphs(min_n=1, max_n=5), min_size=2, max_size=4))
    union = disjoint_union(*parts)
    label = draw(st.permutations(range(union.n)))
    return Graph.from_edges(union.n, [(label[u], label[v]) for u, v in union.edges()])


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(shuffled_unions())
def test_component_searches_match_full_walk_on_shuffled_unions(graph):
    assert is_well_covered(graph) == full_walk_report(graph)


def test_search_work_grows_linearly_on_disjoint_five_cycles():
    # Every maximal independent set of k disjoint 5-cycles has size 2k, and
    # neither bound is tight on C5, so a search of the whole union would
    # visit all 5^k sets; one search per cycle costs k times one cycle.  The
    # work counted is the calls of both searches' inner recursion.
    inner = {
        const
        for search in (independence._largest, independence._smallest)
        for const in search.__code__.co_consts
        if isinstance(const, types.CodeType)
    }
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code in inner:
            calls[0] += 1

    c5 = cycle_graph(5)
    counts = []
    for k in range(1, 8):
        graph = disjoint_union(*[c5] * k)
        calls[0] = 0
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            report = is_well_covered(graph)
        finally:
            sys.setprofile(previous)
        assert (report.verdict, report.alpha) == (True, 2 * k)
        counts.append(calls[0])
        assert counts[-1] <= k * counts[0], counts
