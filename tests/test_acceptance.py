"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything is exact (combinatorial equality, no
tolerances); the timed criteria assert their stated runtime budgets.
"""

import json
import time

from wellcovered import (
    cartesian_product,
    cli,
    enumerate_maximal_independent_sets,
    from_graph6,
    generate_all_graphs,
    is_maximal_independent,
    is_well_covered,
    isolatable_vertices,
    to_graph6,
)
from wellcovered.graphs import iter_bits
import random

from paper_lemmas import (
    check_disjoint_mis,
    clique_remainder,
    diagonal_set,
    greedy_decomposition,
    is_clique,
)
from oracles import (
    atlas_graphs,
    brute_canonical_mask,
    brute_maximal_independent_sets,
    burnside_class_count,
    complete_graph,
    cycle_graph,
    fixed_orientation_witness,
    nx_encode_graph6,
    nx_parse_graph6,
    path_graph,
)

from wellcovered import Graph


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_oracle_equivalence_order_five():
    started = time.perf_counter()
    graphs = generate_all_graphs(5)

    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    oracle_classes = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        oracle_classes.add(brute_canonical_mask(5, edges))
    count_ok = len(graphs) == len(oracle_classes) == 34

    mismatches = 0
    for graph in graphs:
        expected = brute_maximal_independent_sets(graph.n, graph.edges())
        got = [frozenset(iter_bits(s)) for s in enumerate_maximal_independent_sets(graph)]
        if got != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started

    ok = count_ok and mismatches == 0 and elapsed < 10.0
    report(1, ok, f"34 classes, {mismatches} mismatches, {elapsed:.2f}s (< 10s)")
    assert count_ok
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_known_classifications():
    cycle_verdicts = {
        n: is_well_covered(cycle_graph(n)).verdict for n in range(3, 9)
    }
    cycles_ok = cycle_verdicts == {3: True, 4: True, 5: True, 6: False, 7: True, 8: False}

    p3_report = is_well_covered(path_graph(3))
    p3_ok = (
        not p3_report.verdict
        and p3_report.alpha == 2
        and p3_report.min_maximal == 1
    )

    grid = cartesian_product(path_graph(3), path_graph(3))
    grid_report = is_well_covered(grid)
    grid_ok = grid_report.alpha == 5 and grid_report.min_maximal == 3

    ok = cycles_ok and p3_ok and grid_ok
    report(2, ok, f"cycles {cycle_verdicts}, P3 ({p3_report.alpha},{p3_report.min_maximal}), grid ({grid_report.alpha},{grid_report.min_maximal})")
    assert cycles_ok
    assert p3_ok
    assert grid_ok


def _run_scan_via_cli(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_3_main_scan(tmp_path, capsys):
    started = time.perf_counter()

    code_a, doc_a = _run_scan_via_cli(
        tmp_path, "small.json", ["scan", "--gen-up-to", "4", "--max-n", "4"]
    )
    code_b, doc_b = _run_scan_via_cli(
        tmp_path,
        "connected5.json",
        ["scan", "--gen-up-to", "5", "--max-n", "5", "--connected-only",
         "--product-cap", "30", "--jobs", "2"],
    )
    capsys.readouterr()
    elapsed = time.perf_counter() - started

    def bad_cell(doc):
        return next(
            c["count"]
            for c in doc["summary"]["cells"]
            if (c["g_well_covered"], c["h_well_covered"], c["product_well_covered"])
            == (False, False, True)
        )

    pairs_a = doc_a["summary"]["pairs"]
    pairs_b = doc_b["summary"]["pairs"]
    counts_ok = pairs_a == 18 * 19 // 2 and pairs_b == 31 * 32 // 2
    clean = bad_cell(doc_a) == 0 and bad_cell(doc_b) == 0
    exits_ok = code_a == 0 and code_b == 0

    ok = counts_ok and clean and exits_ok and elapsed < 300.0
    report(
        3,
        ok,
        f"{pairs_a}+{pairs_b} pairs, violation cell 0+0, exits {code_a}/{code_b}, "
        f"{elapsed:.1f}s (< 300s)",
    )
    assert counts_ok
    assert clean
    assert exits_ok
    assert elapsed < 300.0


def test_criterion_4_constructive_witness_suite():
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    applicable = 0
    for g in corpus:
        for h in corpus:
            witness = fixed_orientation_witness(g, h)
            if witness is None:
                continue
            applicable += 1
            product = cartesian_product(g, h)
            assert is_maximal_independent(product, witness.big)
            assert is_maximal_independent(product, witness.small)
            assert witness.big.bit_count() > witness.small.bit_count()
            assert witness.gaps_small & ~witness.gaps_big == 0

    c6 = cycle_graph(6)
    started = time.perf_counter()
    witness = fixed_orientation_witness(c6, c6)
    product = cartesian_product(c6, c6)
    spot_ok = (
        is_maximal_independent(product, witness.big)
        and is_maximal_independent(product, witness.small)
        and witness.big.bit_count() > witness.small.bit_count()
    )
    spot_elapsed = time.perf_counter() - started

    ok = applicable > 0 and spot_ok and spot_elapsed < 1.0
    report(
        4,
        ok,
        f"{applicable} applicable oriented pairs, C6 square witness "
        f"{witness.big.bit_count()}>{witness.small.bit_count()} in {spot_elapsed:.3f}s (< 1s)",
    )
    assert applicable > 0
    assert spot_ok
    assert spot_elapsed < 1.0


def test_criterion_5_clique_remainder_suite():
    corpus = [
        Graph.from_edges(n, edges)
        for n, edges in atlas_graphs(1, 7)
    ]
    per_order = {}
    for graph in corpus:
        per_order[graph.n] = per_order.get(graph.n, 0) + 1
    counts_ok = per_order == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    assert burnside_class_count(7) == 1044

    checked = 0
    violations = 0
    for graph in corpus:
        if isolatable_vertices(graph):
            continue
        alpha = is_well_covered(graph).alpha
        for chosen in enumerate_maximal_independent_sets(graph):
            if chosen.bit_count() != alpha:
                continue
            for x in iter_bits(chosen):
                remainder, _ = clique_remainder(graph, chosen, x)
                checked += 1
                if remainder.n < 2 or not is_clique(remainder, remainder.full_mask):
                    violations += 1

    ok = counts_ok and checked > 0 and violations == 0
    report(
        5,
        ok,
        f"{sum(per_order.values())} graphs up to order 7, "
        f"{checked} remainders checked, {violations} violations",
    )
    assert counts_ok
    assert checked > 0
    assert violations == 0


def test_criterion_6_disjoint_mis_suite():
    small = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    from wellcovered import is_connected

    connected5 = [
        g for n in range(1, 6) for g in generate_all_graphs(n) if is_connected(g)
    ]

    def run(corpus):
        met, failed = 0, 0
        for i, g in enumerate(corpus):
            for h in corpus[i:]:
                if g.n * h.n > 30:
                    continue
                outcome = check_disjoint_mis(g, h)
                if outcome.hypotheses_met:
                    met += 1
                    if not outcome.passed:
                        failed += 1
        return met, failed

    met_a, failed_a = run(small)
    met_b, failed_b = run(connected5)

    k2 = complete_graph(2)
    concrete = check_disjoint_mis(k2, k2)
    concrete_ok = concrete.hypotheses_met and concrete.passed

    ok = failed_a == 0 and failed_b == 0 and met_a >= 1 and concrete_ok
    report(
        6,
        ok,
        f"hypotheses met for {met_a}+{met_b} pairs, 0 failures, K2 square passes",
    )
    assert failed_a == 0 and failed_b == 0
    assert met_a >= 1
    assert concrete_ok


def test_criterion_7_diagonal_property():
    rng = random.Random(13)
    corpus = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    products = {}
    for _ in range(1000):
        g = rng.choice(corpus)
        h = rng.choice(corpus)
        order_g = list(range(g.n))
        order_h = list(range(h.n))
        rng.shuffle(order_g)
        rng.shuffle(order_h)
        dec_g = greedy_decomposition(g, order_g)
        dec_h = greedy_decomposition(h, order_h)
        key = (to_graph6(g), to_graph6(h))
        if key not in products:
            products[key] = cartesian_product(g, h)
        product = products[key]
        diagonal = diagonal_set(dec_g, dec_h, h.n)
        depth = min(len(dec_g.blocks), len(dec_h.blocks))
        assert diagonal.bit_count() == sum(
            dec_g.blocks[i].bit_count() * dec_h.blocks[i].bit_count() for i in range(depth)
        )
        assert is_maximal_independent(product, diagonal)
    report(7, True, "1000 random greedy decompositions, all diagonals maximal")


def test_criterion_8_codec_round_trip_and_reference():
    corpus = [g for n in range(1, 7) for g in generate_all_graphs(n)]
    assert len(corpus) == 1 + 2 + 4 + 11 + 34 + 156
    for graph in corpus:
        line = to_graph6(graph)
        assert from_graph6(line) == graph
        ref_n, ref_edges = nx_parse_graph6(line)
        assert (ref_n, ref_edges) == (graph.n, set(graph.edges()))
        assert nx_encode_graph6(graph.n, graph.edges()) == line
    report(8, True, f"{len(corpus)} graphs round-trip and match the reference codec")
