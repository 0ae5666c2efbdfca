import hashlib
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from wellcovered import (
    cli,
    from_graph6,
    generate_all_graphs,
    graph_to_mask,
    to_graph6,
)
from wellcovered.corpus import _is_canonical

from oracles import atlas_graphs, brute_canonical_mask, burnside_class_count

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


def test_outputs_are_canonical_and_sorted():
    for n in range(1, 7):
        masks = [graph_to_mask(g) for g in generate_all_graphs(n)]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)
        for g, mask in zip(generate_all_graphs(n), masks):
            assert mask == brute_canonical_mask(g.n, g.edges())


def test_matches_brute_force_canonicalization_oracle():
    # Every possible edge set canonicalizes into the generated list.
    for n in range(1, 5):
        generated = {graph_to_mask(g) for g in generate_all_graphs(n)}
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
        generated = {graph_to_mask(g) for g in generate_all_graphs(n)}
        assert generated == by_order[n]


def test_order_seven_is_sorted_and_canonical_on_a_sample(order_seven):
    masks = [graph_to_mask(g) for g in order_seven]
    assert masks == sorted(masks) and len(set(masks)) == len(masks) == 1044
    for g in random.Random(7).sample(order_seven, 24):
        assert graph_to_mask(g) == brute_canonical_mask(g.n, g.edges())


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


def test_twin_rule_skips_only_noncanonical_children(order_seven):
    # Every column the generator skips for holding a twin u but not its
    # twin v > u gives a child that the full search rejects.
    rng = random.Random(16)
    parents = rng.sample(generate_all_graphs(6), 20) + rng.sample(order_seven, 20)
    skipped = 0
    for parent in parents:
        k, rows = parent.n, parent.adj
        twins = [
            (u, v)
            for v in range(k)
            for u in range(v)
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
        ]
        for s in range(1 << k):
            if any(s >> u & 1 and not s >> v & 1 for u, v in twins):
                child = tuple(r | (s >> i & 1) << k for i, r in enumerate(rows)) + (s,)
                assert not _is_canonical(child)
                skipped += 1
    assert skipped > 0


def test_round_trip_through_graph6():
    for n in range(1, 6):
        for g in generate_all_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_rejects_out_of_range_order():
    for n in (0, 9, -1):
        with pytest.raises(ValueError):
            generate_all_graphs(n)
