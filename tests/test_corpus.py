import hashlib
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from wellcovered import (
    Graph,
    cli,
    from_graph6,
    generate_all_graphs,
    to_graph6,
)
from wellcovered import corpus
from wellcovered.corpus import _is_canonical, generate_levels

from oracles import (
    atlas_graphs,
    bit_string,
    brute_canonical_mask,
    burnside_class_count,
    edges_of_bit_string,
)

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

GEN_SEVEN_SHA256 = "e3eee2a6b5beecaa47bee1b0d67a6a982c0e5e2c0067993d735036d3c9d6512f"

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.fixture(scope="module")
def order_seven():
    return generate_all_graphs(7)


def test_class_counts_match_burnside_oracle(order_seven):
    for n, expected in KNOWN_CLASS_COUNTS.items():
        assert burnside_class_count(n) == expected
        if n < 8:  # generating order 8 takes seconds; CI checks it with `gen 8`
            assert len(order_seven if n == 7 else generate_all_graphs(n)) == expected


def test_order_one():
    graphs = generate_all_graphs(1)
    assert len(graphs) == 1 and graphs[0].n == 1


@pytest.fixture(scope="module")
def brute_canonical_strings():
    """Order n <= 6: the brute-force canonical string of each generated
    class, in generation order."""
    return {
        n: [brute_canonical_mask(g.n, g.edges()) for g in generate_all_graphs(n)]
        for n in range(1, 7)
    }


def test_outputs_are_canonical_and_sorted(brute_canonical_strings):
    for n in range(1, 7):
        masks = [bit_string(g.n, g.edges()) for g in generate_all_graphs(n)]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)
        assert masks == brute_canonical_strings[n]


def test_matches_brute_force_canonicalization_oracle():
    # Every possible edge set canonicalizes into the generated list.
    for n in range(1, 5):
        generated = {bit_string(g.n, g.edges()) for g in generate_all_graphs(n)}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        all_canonical = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
            all_canonical.add(brute_canonical_mask(n, edges))
        assert generated == all_canonical


def test_matches_reference_atlas():
    by_order = {n: set() for n in range(1, 7)}
    for n, edges in atlas_graphs(1, 6):
        by_order[n].add(brute_canonical_mask(n, edges))
    for n in range(1, 7):
        generated = {bit_string(g.n, g.edges()) for g in generate_all_graphs(n)}
        assert generated == by_order[n]


def test_order_seven_is_sorted_and_canonical_on_a_sample(order_seven):
    masks = [bit_string(g.n, g.edges()) for g in order_seven]
    assert masks == sorted(masks) and len(set(masks)) == len(masks) == 1044
    for g in random.Random(7).sample(order_seven, 24):
        assert bit_string(g.n, g.edges()) == brute_canonical_mask(g.n, g.edges())


# networkx 3.5 warns that its unlabelled hashes changed; both sides are
# hashed by the same version here.
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_order_seven_matches_atlas_up_to_isomorphism(order_seven):
    # Bucket both sides by Weisfeiler-Lehman hash, then pair each generated
    # class with exactly one atlas class of its bucket.
    def nx_graph(n, edges):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return g

    buckets: dict[str, list[nx.Graph]] = {}
    atlas = atlas_graphs(7, 7)
    for n, edges in atlas:
        g = nx_graph(n, edges)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
    assert len(atlas) == len(order_seven)
    for graph in order_seven:
        g = nx_graph(graph.n, graph.edges())
        bucket = buckets[nx.weisfeiler_lehman_graph_hash(g)]
        matches = [k for k, other in enumerate(bucket) if nx.is_isomorphic(g, other)]
        assert len(matches) == 1
        bucket.pop(matches[0])
    assert not any(buckets.values())


def test_gen_output_matches_benchmark_golden_digests(capsys):
    # The recorded digests of `gen 1..6`, read from the benchmark's golden
    # file, pin the output byte for byte.
    digests = json.loads(GOLDEN.read_text(encoding="utf-8"))["corpus-analyze"]["gen"]
    assert len(digests) == 6
    for n, digest in enumerate(digests, 1):
        assert cli.main(["gen", str(n)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_order_seven_output_is_pinned_byte_for_byte(order_seven):
    out = "".join(to_graph6(g) + "\n" for g in order_seven)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GEN_SEVEN_SHA256


def _twin_rule(parent: Graph) -> tuple[list[int], list[int]]:
    """The last columns of a parent's children that the generator's twin
    rule keeps and those it skips: a column is skipped when it holds a
    twin u but not its twin v > u."""
    k, rows = parent.n, parent.adj
    twins = [
        (u, v)
        for v in range(k)
        for u in range(v)
        if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
    ]
    kept, skipped = [], []
    for s in range(1 << k):
        holds_one = any(s >> u & 1 and not s >> v & 1 for u, v in twins)
        (skipped if holds_one else kept).append(s)
    return kept, skipped


def _child(parent: Graph, s: int) -> tuple[int, ...]:
    """The parent's adjacency with a new last vertex whose neighbours are s."""
    k = parent.n
    return tuple(r | (s >> i & 1) << k for i, r in enumerate(parent.adj)) + (s,)


def _swap_bound(parent: Graph) -> tuple[list[int], int]:
    """The last columns of a parent's children in ascending order (the pair
    (0, k) first), and the index of the first whose child no swap of an old
    vertex m with the new vertex k makes smaller on its vertices 0..m."""
    k = parent.n
    columns = sorted(range(1 << k), key=lambda s: [s >> i & 1 for i in range(k)])

    def prefix(edges, m):
        return bit_string(m + 1, [(u, v) for u, v in edges if u <= m and v <= m])

    # Without the swap, vertices 0..m are the parent's.
    own = [prefix(parent.edges(), m) for m in range(k)]

    def swap_makes_smaller(edges, m):
        swap = {m: k, k: m}
        return prefix([(swap.get(u, u), swap.get(v, v)) for u, v in edges], m) < own[m]

    for c, s in enumerate(columns):
        edges = list(Graph(k + 1, _child(parent, s)).edges())
        if not any(swap_makes_smaller(edges, m) for m in range(k)):
            return columns, c
    raise AssertionError("the full column is never made smaller")


def _tested_columns(parent: Graph) -> list[int]:
    """The columns the generator should test: twin-kept, at or above the
    bound, in ascending order."""
    columns, bound = _swap_bound(parent)
    kept = set(_twin_rule(parent)[0])
    return [s for s in columns[bound:] if s in kept]


def test_column_bound_skips_only_noncanonical_children(order_seven, brute_canonical_strings):
    # Every column below the bound gives a child that is not canonical:
    # checked against the brute-force canonical strings for every parent of
    # order <= 5, and by the full search for a seeded sample of order 6
    # and order 7 parents.
    skipped = 0
    for k in range(1, 6):
        canonical = set(brute_canonical_strings[k + 1])
        assert len(canonical) == KNOWN_CLASS_COUNTS[k + 1]
        for parent in generate_all_graphs(k):
            columns, bound = _swap_bound(parent)
            for s in columns[:bound]:
                child = Graph(k + 1, _child(parent, s))
                assert bit_string(k + 1, child.edges()) not in canonical
                skipped += 1
    rng = random.Random(38)
    for parent in rng.sample(generate_all_graphs(6), 6) + rng.sample(order_seven, 4):
        columns, bound = _swap_bound(parent)
        for s in columns[:bound]:
            assert not _is_canonical(_child(parent, s))
            skipped += 1
    assert skipped > 0


def test_generator_tests_only_twin_kept_columns_at_or_above_the_bound(monkeypatch):
    expected = [(0,)]
    for k in range(1, 6):
        for parent in generate_all_graphs(k):
            expected += [_child(parent, s) for s in _tested_columns(parent)]
    tested = []
    real = corpus._is_canonical
    monkeypatch.setattr(corpus, "_is_canonical", lambda adj: tested.append(adj) or real(adj))
    list(generate_levels(6))
    assert tested == expected
    assert len(tested) == 284  # 783 without the bound


def test_twin_rule_skips_only_noncanonical_children(order_seven):
    # Every column the generator skips gives a child that the full search
    # rejects.
    rng = random.Random(16)
    parents = rng.sample(generate_all_graphs(6), 20) + rng.sample(order_seven, 20)
    skipped = 0
    for parent in parents:
        for s in _twin_rule(parent)[1]:
            assert not _is_canonical(_child(parent, s))
            skipped += 1
    assert skipped > 0


def test_order_eight_children_match_brute_force_canonical_forms(order_seven):
    # Order 8 is never generated in full here (CI checks `gen 8`).  For a
    # seeded sample of the children the generator tests (twin-kept columns
    # at or above the bound), the canonical test accepts a child exactly
    # when its bit-string is the brute-force canonical one, and it accepts
    # that canonical relabeling.
    rng = random.Random(8)
    for parent in rng.sample(order_seven, 8):
        child = Graph(8, _child(parent, rng.choice(_tested_columns(parent))))
        edges = list(child.edges())
        canonical = brute_canonical_mask(8, edges)
        assert _is_canonical(child.adj) == (bit_string(8, edges) == canonical)
        relabeled = Graph.from_edges(8, edges_of_bit_string(8, canonical))
        assert bit_string(8, relabeled.edges()) == canonical
        assert _is_canonical(relabeled.adj)


def test_canonical_test_accepts_a_relabeling_exactly_when_its_string_is_the_classs():
    # `gen 6` pins every class's canonical string, so no brute force is
    # needed: a relabeling of a class is canonical exactly when its
    # bit-string is the class's own.  Twelve seeded relabelings per class
    # reach both the rejects and the accepts of every refinement branch.
    rng = random.Random(37)
    verdicts = set()
    for graph in generate_all_graphs(6):
        edges = list(graph.edges())
        canonical = bit_string(6, edges)
        for _ in range(12):
            perm = rng.sample(range(6), 6)
            relabeled = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in edges])
            same = bit_string(6, relabeled.edges()) == canonical
            assert _is_canonical(relabeled.adj) == same, (to_graph6(graph), perm)
            verdicts.add(same)
    assert verdicts == {False, True}


def test_round_trip_through_graph6():
    for n in range(1, 6):
        for g in generate_all_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_rejects_out_of_range_order():
    for n in (0, 9, -1):
        with pytest.raises(ValueError):
            generate_all_graphs(n)


def test_levels_match_each_order_and_build_each_level_once(monkeypatch):
    """``generate_levels(n)`` gives every order's classes up to n in one
    pass: it runs the canonical tests of ``generate_all_graphs(n)`` alone,
    where generating each order on its own repeats every lower level."""
    tested = []
    real = corpus._is_canonical
    monkeypatch.setattr(corpus, "_is_canonical", lambda adj: tested.append(adj) or real(adj))
    levels = list(generate_levels(5))
    one_pass = len(tested)
    tested.clear()
    assert levels == [generate_all_graphs(n) for n in range(1, 6)]
    each_order = len(tested)
    tested.clear()
    generate_all_graphs(5)
    assert len(tested) == one_pass < each_order
    assert list(generate_levels(0)) == []
    with pytest.raises(ValueError):
        list(generate_levels(9))
