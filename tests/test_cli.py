import dataclasses
import functools
import hashlib
import importlib
import io
import itertools
import json
import multiprocessing
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

import wellcovered
from wellcovered import (
    FactorAnalysis,
    Graph,
    cli,
    from_graph6,
    generate_all_graphs,
    independence,
    theorem,
    to_graph6,
    verify_pair,
    witness_invariants,
)
from wellcovered.cli import ScanConfig, ScanResult, render_scan_json, scan
from wellcovered.graphs import component_masks

from oracles import complete_graph, cycle_graph, full_walk_report, path_graph, record_walks
from test_render import GOLDEN_PATH
from test_theorem import _interleaved_union


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


# --- gen ----------------------------------------------------------------------


def test_gen_order_one(capsys):
    code, out, _ = run_cli(capsys, ["gen", "1"])
    assert code == 0 and out == "@\n"


def test_gen_order_two(capsys):
    code, out, _ = run_cli(capsys, ["gen", "2"])
    assert code == 0 and out.split() == ["A?", "A_"]


def test_gen_order_four_count(capsys):
    code, out, _ = run_cli(capsys, ["gen", "4"])
    assert code == 0 and len(out.split()) == 11


def test_gen_out_of_range(capsys):
    for n in ("0", "9", "-1"):
        code, out, err = run_cli(capsys, ["gen", n])
        assert code == 2 and out == ""
        assert err.endswith(
            f"error: argument n: must be an integer between 1 and 8, got '{n}'\n"
        )


# --- analyze ---------------------------------------------------------------------


def test_analyze_p3(capsys):
    code, doc, _ = run_json(capsys, ["analyze", "Bg"])
    assert code == 0
    assert doc["well_covered"] is False
    assert doc["alpha"] == 2 and doc["min_maximal"] == 1
    assert [w["vertex"] for w in doc["isolatable"]] == [0, 2]
    assert doc["mis_size_histogram"] == {"1": 1, "2": 1}


def test_analyze_k2(capsys):
    code, doc, _ = run_json(capsys, ["analyze", "A_"])
    assert code == 0
    assert doc["well_covered"] is True and doc["alpha"] == 1
    assert doc["isolatable"] == []


def test_analyze_k1(capsys):
    code, doc, _ = run_json(capsys, ["analyze", "@"])
    assert code == 0
    assert doc["well_covered"] is True and doc["alpha"] == 1
    assert doc["isolatable"] == [{"vertex": 0, "certificate": []}]


def test_analyze_parse_error(capsys):
    code, _, err = run_cli(capsys, ["analyze", "A"])
    assert code == 2 and "error" in err


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n\nA_\n"))
    code, out, _ = run_cli(capsys, ["analyze", "-"])
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["graph6"] for d in docs] == ["Bg", "A_"]


def test_analyze_stdin_matches_the_benchmark_golden_digests(capsys, monkeypatch):
    # `analyze -` on the output of `gen 1..6`, pinned line by line by the
    # recorded digests in the benchmark's golden file.
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        digests = json.load(handle)["corpus-analyze"]["analyze"]
    lines = "".join(run_cli(capsys, ["gen", str(n)])[1] for n in range(1, 7))
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out, _ = run_cli(capsys, ["analyze", "-"])
    records = out.splitlines(keepends=True)
    assert code == 0 and len(records) == len(digests) == 208
    assert [hashlib.sha256(r.encode("utf-8")).hexdigest() for r in records] == digests


def test_analyze_walks_each_component_once_and_runs_no_search(capsys, monkeypatch):
    # The report comes from the walk that counts the set sizes: P3, C5,
    # 2K2 and the disjoint union of P3, a star and K1, labels interleaved.
    def forbidden(*args):
        raise AssertionError("analyze ran a branch-and-bound search")

    for name in ("_largest", "_smallest"):
        monkeypatch.setattr(independence, name, forbidden)
    walked = record_walks(monkeypatch)
    code, doc, _ = run_json(capsys, ["analyze", "C`"])
    assert code == 0 and (doc["alpha"], doc["min_maximal"]) == (2, 2) and walked == [4, 4]
    union = Graph.from_edges(8, [(0, 5), (5, 2), (4, 1), (4, 6), (4, 7)])
    lines = ["Bg", "Dhc", "C`", to_graph6(union)]
    walked.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    code, out, _ = run_cli(capsys, ["analyze", "-"])
    graphs = [from_graph6(line) for line in lines]
    assert code == 0 and [json.loads(r)["graph6"] for r in out.splitlines()] == lines
    assert walked == [g.n for g in graphs for _ in component_masks(g)] == [3, 5, 4, 4, 8, 8, 8]


def test_analyze_stdin_bad_line_writes_nothing(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bg\nA\nA_\n"))
    code, out, err = run_cli(capsys, ["analyze", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: ")


def test_analyze_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, ["analyze", "Bg", "--enum-cap", "2"])
    assert code == 3 and "cap" in err
    code, doc, _ = run_json(capsys, ["analyze", "Bg", "--enum-cap", "3"])
    assert code == 0 and doc["alpha"] == 2


NUMERIC_FLAGS = {
    "analyze": ("--enum-cap",),
    "product": ("--enum-cap", "--product-cap"),
    "witness": ("--enum-cap", "--product-cap"),
    "scan": ("--enum-cap", "--product-cap", "--max-n", "--jobs", "--gen-up-to"),
}
CAP_ARGS = {"analyze": ["Bg"], "product": ["Bg", "Bg"], "witness": ["Bg", "Bg"], "scan": []}


@pytest.mark.parametrize(
    "command,flag,bad",
    [
        (command, flag, bad)
        for command, flags in NUMERIC_FLAGS.items()
        for flag in flags
        for bad in (("abc", "-1", "9") if flag == "--gen-up-to" else ("abc", "0", "-1"))
    ],
)
def test_bad_cap_exits_2_and_names_its_source(capsys, command, flag, bad):
    # The parser checks every numeric flag, so nothing runs and nothing is written.
    code, out, err = run_cli(capsys, [command, *CAP_ARGS[command], f"{flag}={bad}"])
    assert code == 2 and out == "" and f"error: argument {flag}: must be " in err


# --- product ----------------------------------------------------------------------


def test_product_p3_p3(capsys):
    code, doc, _ = run_json(capsys, ["product", "Bg", "Bg"])
    assert code == 0
    assert doc["product"]["n"] == 9 and doc["product"]["m"] == 12
    assert doc["product"]["well_covered"] is False
    assert doc["theorem_consistent"] is True
    assert doc["witness"]["applicable"] is True
    assert doc["witness"]["big_size"] == 5 and doc["witness"]["small_size"] == 3


def test_product_k2_k2(capsys):
    code, doc, _ = run_json(capsys, ["product", "A_", "A_"])
    assert code == 0
    assert doc["product"]["n"] == 4
    assert doc["product"]["well_covered"] is True
    assert doc["theorem_consistent"] is True


def test_product_with_k1_mirrors_factor(capsys):
    code, doc, _ = run_json(capsys, ["product", "@", "Bg"])
    assert code == 0
    assert doc["product"]["n"] == 3 and doc["product"]["m"] == 2
    assert doc["product"]["well_covered"] is doc["h"]["well_covered"]
    assert doc["product"]["alpha"] == doc["h"]["alpha"]


def test_product_cap_exit(capsys):
    code, _, err = run_cli(capsys, ["product", "Bg", "Bg", "--product-cap", "8"])
    assert code == 3 and "cap" in err


def test_product_enum_cap_applies_to_the_largest_component_product(capsys):
    # C` is 2K2: its product with P3 has order 12, but the largest
    # graph searched, K2 x P3, has 6 vertices.
    code, doc, _ = run_json(capsys, ["product", "C`", "Bg", "--enum-cap", "8"])
    assert code == 0 and doc["product"]["n"] == 12


def test_product_enum_cap_below_factor_order_exits_3(capsys):
    code, _, err = run_cli(capsys, ["product", "Bg", "Bg", "--enum-cap", "2"])
    assert code == 3 and "enumeration cap 2" in err


# --- witness -----------------------------------------------------------------------


def test_witness_p3_p3(capsys):
    code, doc, _ = run_json(capsys, ["witness", "Bg", "Bg"])
    assert code == 0
    assert doc["swapped"] is False
    assert doc["sets"]["big"]["size"] == 5
    assert doc["sets"]["small"]["size"] == 3
    assert doc["all_checks_pass"] is True
    assert all(doc["checks"].values())
    pairs = {tuple(p) for p in doc["sets"]["big"]["pairs"]}
    assert len(pairs) == 5


def test_witness_not_applicable_k2(capsys):
    code, doc, _ = run_json(capsys, ["witness", "A_", "A_"])
    assert code == 4
    assert doc["applicable"] is False


def test_witness_not_applicable_c5_p3(capsys):
    c5_line = to_graph6(cycle_graph(5))
    code, doc, _ = run_json(capsys, ["witness", c5_line, "Bg"])
    assert code == 4
    assert doc["g_well_covered"] is True and doc["g_isolatable"] == []
    assert doc["h_well_covered"] is False


def test_witness_swapped_orientation(capsys):
    # first argument supplies the non-well-covered factor, second the
    # isolatable one
    p5_line = to_graph6(path_graph(5))
    code, doc, _ = run_json(capsys, ["witness", p5_line, "@"])
    assert code == 0
    assert doc["swapped"] is True
    assert doc["all_checks_pass"] is True


def test_witness_exits_one_when_a_check_fails(capsys, monkeypatch):
    """A failed check keeps the report and sets the violation exit code."""
    real = cli.witness_invariants
    monkeypatch.setattr(
        cli, "witness_invariants",
        lambda witness: {**real(witness), "big_maximal_independent": False},
    )
    code, doc, err = run_json(capsys, ["witness", "Bg", "Bg"])
    assert code == 1 and err == ""
    assert doc["all_checks_pass"] is False and doc["checks"]["big_maximal_independent"] is False
    assert doc["sets"]["big"]["size"] == 5


@pytest.mark.parametrize(
    "argv", [["witness", "Bg", "Bg"], ["product", "Bg", "Bg"], ["scan", "--gen-up-to", "3"]]
)
def test_a_failed_builder_check_exits_one_with_one_error_line(capsys, monkeypatch, argv):
    """A greedy step that adds nothing leaves the built sets undominated, so
    the builder's own final check fails: no report and no traceback."""
    monkeypatch.setattr(
        theorem, "_greedy_rows", lambda left, right, allowed, chosen: list(chosen)
    )
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert "error: constructed witness sets are not maximal independent" in err.splitlines()


def count_calls(monkeypatch, name):
    """Count calls of ``name`` through every module attribute that can reach it."""
    calls = []
    for module in (cli, theorem):
        original = getattr(module, name, None)
        if original is not None:
            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_witness_walks_each_factor_once(capsys, monkeypatch):
    walked = record_walks(monkeypatch)
    built = count_calls(monkeypatch, "cartesian_product")
    code, doc, _ = run_json(capsys, ["witness", "Bg", "Bg"])
    assert code == 0 and doc["swapped"] is False and doc["all_checks_pass"] is True
    assert walked == []  # no factor is enumerated, and no product
    assert built == []  # the witness and its checks run on the factors' rows


def test_witness_not_applicable_reuses_factor_analysis(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "FactorAnalysis")
    searched = count_calls(monkeypatch, "is_well_covered")
    walked = record_walks(monkeypatch)
    c5_line = to_graph6(cycle_graph(5))
    code, doc, _ = run_json(capsys, ["witness", c5_line, "Bg"])
    assert code == 4 and doc["g_isolatable"] == [] and doc["h_isolatable"] == [0, 2]
    assert len(calls) == 2 and walked == []
    # C5's report is searched once, for the orientation rule and the exit-4
    # document alike, then P3's for that document.
    assert [graph.n for graph, *_ in searched] == [5, 3]


def test_witness_cap_applies_to_factor_order(capsys):
    # Vertex 0 of E@r? is isolatable with a residual of 3 vertices, but the
    # factor itself has 6 vertices, over the cap.
    code, _, err = run_cli(capsys, ["witness", "E@r?", "Bg", "--enum-cap", "3"])
    assert code == 3 and "enumeration cap 3" in err


def test_witness_star_k1_36_needs_cap_of_its_order(capsys):
    # Every residual of K1,36 has at most 35 vertices, but the star has 37.
    star = to_graph6(Graph.from_edges(37, [(0, leaf) for leaf in range(1, 37)]))
    code, _, err = run_cli(capsys, ["witness", star, "Bg"])
    assert code == 3 and "graph order 37 exceeds enumeration cap 36" in err
    code, doc, _ = run_json(capsys, ["witness", star, "Bg", "--enum-cap", "37"])
    assert code == 0 and doc["all_checks_pass"] is True


def record_searches(monkeypatch, forbid=False):
    """Record (search, factor order, universe or vertex) for every call of
    the two report searches and the certificate search, or fail on the
    first."""
    calls = []
    for name in ("_largest", "_smallest", "_isolating_set"):
        original = getattr(independence, name)

        # The report searches take orbit rows as a third argument.
        def recorded(graph, arg, *orbits, _name=name, _original=original):
            if forbid:
                raise AssertionError(f"{_name} ran")
            calls.append((_name, graph.n, arg))
            return _original(graph, arg, *orbits)

        monkeypatch.setattr(independence, name, recorded)
    return calls


@pytest.mark.parametrize(
    "argv, message",
    [
        (["DLs", "E@r?", "--enum-cap", "4", "--product-cap", "1"],
         "graph order 5 exceeds enumeration cap 4"),
        (["Bg", "E@r?", "--enum-cap", "4", "--product-cap", "1"],
         "graph order 6 exceeds enumeration cap 4"),
        (["Bg", "Bg", "--product-cap", "8"], "product order 9 exceeds cap 8"),
        (["A_", "A_", "--product-cap", "3"], "product order 4 exceeds cap 3"),
    ],
)
def test_witness_checks_every_cap_before_any_search(capsys, monkeypatch, argv, message):
    record_searches(monkeypatch, forbid=True)
    code, out, err = run_cli(capsys, ["witness", *argv])
    assert code == 3 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["Bg", "Bg", "--product-cap", "4"], "product order 9 exceeds cap 4"),
        (["Bg", "Bg", "--enum-cap", "5"], "graph order 9 exceeds enumeration cap 5"),
        # 2K2 with P3: the largest component product, K2 x P3, has 6 vertices.
        (["C`", "Bg", "--enum-cap", "5"], "graph order 6 exceeds enumeration cap 5"),
    ],
)
def test_product_checks_every_cap_before_any_search(capsys, monkeypatch, argv, message):
    record_searches(monkeypatch, forbid=True)
    code, out, err = run_cli(capsys, ["product", *argv])
    assert code == 3 and out == "" and err == f"error: {message}\n"


def test_witness_searches_only_the_lemma_hypotheses(capsys, monkeypatch):
    # P5 labelled 1-0-2-3-4: vertex 0 is not isolatable, 1, 2 and 4 are.
    left = to_graph6(Graph.from_edges(5, [(1, 0), (0, 2), (2, 3), (3, 4)]))
    calls = record_searches(monkeypatch)
    code, doc, _ = run_json(capsys, ["witness", left, "Bg"])
    assert code == 0 and doc["swapped"] is False and doc["isolatable_vertex"] == 1
    assert [(n, x) for name, n, x in calls if name == "_isolating_set"] == [(5, 0), (5, 1)]
    assert {n for name, n, _ in calls if name != "_isolating_set"} == {3}


def test_witness_matches_the_full_analysis_route_on_small_pairs(capsys):
    """Every ordered pair of classes of order <= 4, against the report built
    from both factors' full analyses through the same orientation rule."""
    graphs = [g for n in range(1, 5) for g in generate_all_graphs(n)]
    outcomes = []
    for graph_g, graph_h in itertools.product(graphs, repeat=2):
        g6_g, g6_h = to_graph6(graph_g), to_graph6(graph_h)
        g, h = FactorAnalysis(graph_g), FactorAnalysis(graph_h)
        oriented = theorem._orient_witness(g, h)
        if oriented is None:
            expected, document = 4, cli._not_applicable_dict(g, h)
        else:
            witness, swapped = oriented
            checks = witness_invariants(witness)
            expected, document = 0, cli._witness_dict(g6_g, g6_h, swapped, witness, checks)
            outcomes.append(swapped)
        assert run_cli(capsys, ["witness", g6_g, g6_h]) == (
            expected, cli._render_json(document) + "\n", ""
        )
    assert len(graphs) == 18 and len(outcomes) == 115 and 0 < sum(outcomes) < 115


# Every ordered pair of the 18 classes of order <= 4, at the default caps, at
# --enum-cap 3 and at --product-cap 5: each call's exit code, stdout and
# stderr, hashed into one digest per command, and the count of each exit code.
PINNED_REPORTS = {
    "product": (
        "96abc047495a3ffe2fbb10287cb5104c6d8f8565226cffa76a42d6dd19006ac6",
        {0: 396, 3: 576},
    ),
    "witness": (
        "1540e2f3b8aa988aca1d62598d2f1a4b10fa992fd0f43b598c58e60fb7eb513e",
        {0: 134, 3: 560, 4: 278},
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_pair_reports_match_their_pinned_digests(capsys, command):
    lines = [to_graph6(g) for n in range(1, 5) for g in generate_all_graphs(n)]
    digest, codes = hashlib.sha256(), Counter()
    for flags in ([], ["--enum-cap", "3"], ["--product-cap", "5"]):
        for g6_g, g6_h in itertools.product(lines, repeat=2):
            code, out, err = run_cli(capsys, [command, g6_g, g6_h, *flags])
            digest.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
            codes[code] += 1
    assert (digest.hexdigest(), codes) == PINNED_REPORTS[command]


# --- scan --------------------------------------------------------------------------


def test_scan_single_graph_corpus(tmp_path, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bg\n")
    code, doc, err = run_json(capsys, ["scan", "--corpus", str(corpus)])
    assert code == 0
    assert len(doc["records"]) == 1
    record = doc["records"][0]
    assert record["product_well_covered"] is False
    assert record["theorem_consistent"] is True
    assert "1 pairs, 0 violations" in err


def test_scan_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("")
    code, doc, _ = run_json(capsys, ["scan", "--corpus", str(corpus)])
    assert code == 0 and doc["records"] == []


def test_scan_missing_corpus_file(capsys):
    code, _, err = run_cli(capsys, ["scan", "--corpus", "/nonexistent/x.g6"])
    assert code == 2 and "error" in err


def test_scan_corpus_parse_error(tmp_path, capsys):
    # Each bad corpus exits 2, names its file and line, and writes no report.
    corpus = tmp_path / "bad.g6"
    for data, message in [
        (b"not graph6 ~~~\n", ":1: byte 32 outside the graph6 range"),
        (b"Bg\n\nA_x\n", ":3: order 2 needs 1 data bytes, got 2"),
        (b"Bg\nB\xffg\n", ":2: non-ascii character"),
    ]:
        corpus.write_bytes(data)
        code, out, err = run_cli(capsys, ["scan", "--corpus", str(corpus)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {corpus}{message}")


def test_scan_generated_summary(capsys):
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "3", "--max-n", "3"])
    assert code == 0
    assert doc["summary"]["pairs"] == 28  # 7 classes -> C(7,2)+7
    cells = {
        (c["g_well_covered"], c["h_well_covered"], c["product_well_covered"]): c["count"]
        for c in doc["summary"]["cells"]
    }
    assert len(cells) == 8
    assert cells[(False, False, True)] == 0
    assert sum(cells.values()) == 28
    assert doc["summary"]["violations"] == []
    # constructive witnesses must agree with the enumeration verdict
    for record in doc["records"]:
        if record["witness_applicable"]:
            assert record["product_well_covered"] is False
            assert record["witness_big_size"] > record["witness_small_size"]


def test_default_scan_witness_sizes_lie_between_the_searched_extremes():
    """Both sets of every lemma witness are maximal in the product, so their
    sizes lie between its searched extremes.  The bounds are met in 741 pairs
    for alpha and 121 for the smallest size, so a search that moved either
    extreme by one would fail here."""
    witnessed = [record for record in scan(ScanConfig()).records if record.witness_applicable]
    assert len(witnessed) == 824
    for r in witnessed:
        assert r.product_well_covered is False
        assert r.product_min_maximal <= r.witness_small_size < r.witness_big_size <= r.product_alpha
    assert sum(r.witness_big_size == r.product_alpha for r in witnessed) == 741
    assert sum(r.witness_small_size == r.product_min_maximal for r in witnessed) == 121


def test_scan_generates_only_orders_it_keeps(capsys, monkeypatch):
    """The corpus is generated in one pass, up to the factor order cap."""
    calls = count_calls(monkeypatch, "generate_levels")
    each_order = count_calls(monkeypatch, "generate_all_graphs")
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "6", "--max-n", "3"])
    assert code == 0 and doc["summary"]["pairs"] == 28
    assert doc["config"]["generate_up_to"] == 6
    assert calls == [(3,)] and each_order == []


def test_scan_encodes_each_corpus_graph_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "to_graph6")
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "3"])
    assert code == 0 and doc["summary"]["pairs"] == 28
    assert len(calls) == 7  # one per class of order <= 3


def component_products(graphs, product_cap):
    """Over the unordered pairs of ``graphs`` whose product fits the cap:
    the number of components of their products, the set of distinct
    ordered pairs of factor components, each relabelled in the order of its
    vertices, and the set of distinct unordered ones; computed with
    networkx."""

    def compacted(graph):
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(graph.n))
        nx_graph.add_edges_from(graph.edges())
        parts = []
        for part in nx.connected_components(nx_graph):
            rank = {v: i for i, v in enumerate(sorted(part))}
            edges = nx_graph.subgraph(part).edges()
            parts.append((len(part), frozenset(tuple(sorted((rank[u], rank[v]))) for u, v in edges)))
        return parts

    count, distinct = 0, set()
    for g, h in itertools.combinations_with_replacement(graphs, 2):
        if g.n * h.n <= product_cap:
            pieces = [(a, b) for a in compacted(g) for b in compacted(h)]
            count += len(pieces)
            distinct.update(pieces)
    return count, distinct, {frozenset(piece) for piece in distinct}


def test_scan_builds_only_component_products(capsys, monkeypatch):
    """No pair's own product is built, not even for its witness: every build
    is a component product, one per distinct unordered pair of compacted
    components."""
    corpus = {}
    real_load, real_product = cli.load_corpus, theorem.cartesian_product
    built = []

    def load(config):
        corpus.update(real_load(config))
        return corpus

    def recorded(left, right):
        built.append((left, right))
        return real_product(left, right)

    monkeypatch.setattr(cli, "load_corpus", load)
    monkeypatch.setattr(theorem, "cartesian_product", recorded)
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "3"])
    assert code == 0 and doc["summary"]["pairs"] == 28
    factors = {id(graph) for graph in corpus.values()}
    assert not [pair for pair in built if id(pair[0]) in factors or id(pair[1]) in factors]
    assert sum(r["witness_applicable"] for r in doc["records"]) == 5
    assert len(built) == len(component_products(corpus.values(), 30)[2])


def test_default_scan_builds_each_component_product_once(monkeypatch):
    """The default scan builds one of each of its 496 distinct unordered
    component products (586 ordered) and nothing else: its 824 witnesses
    are built on the factors' rows."""
    built = count_calls(monkeypatch, "cartesian_product")
    searched = count_calls(monkeypatch, "is_well_covered")
    verified = count_calls(monkeypatch, "verify_pair")
    result = scan(ScanConfig())
    assert len(built) == 496
    assert len(searched) == 52 + 496  # each factor, then each product built
    assert verified == []
    assert sum(record.witness_applicable for record in result.records) == 824


def test_scan_searches_each_distinct_component_product_once_per_scan(monkeypatch):
    config = ScanConfig(generate_up_to=4)
    corpus = cli.load_corpus(config)
    components, distinct, unordered = component_products(corpus.values(), config.max_product_order)
    real, searched = theorem.is_well_covered, []

    def counted(graph, cap, orbits=None):
        searched.append(graph)
        return real(graph, cap)

    monkeypatch.setattr(theorem, "is_well_covered", counted)
    for _ in range(2):  # the second scan searches as much as the first
        searched.clear()
        scan(config)
        # One report per factor, then one per distinct unordered component
        # product.
        assert len(searched) == len(corpus) + len(unordered)
    assert len(unordered) < len(distinct) < components


def test_scan_builds_each_left_orbit_part_once_per_analysis(monkeypatch):
    # One build per (analysis, component, right component order), told
    # apart by the analysis's own orbit rows of the component; the next
    # scan's analyses build as many, so no part outlives its scan.
    built, real = [], theorem.left_product_orbits

    def counted(left, n_right):
        built.append((id(left), n_right))
        return real(left, n_right)

    monkeypatch.setattr(theorem, "left_product_orbits", counted)
    counts = []
    for _ in range(2):
        built.clear()
        scan(ScanConfig(generate_up_to=4))
        assert built and len(built) == len(set(built))
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_scan_never_enumerates_a_product(capsys, monkeypatch):
    walked = record_walks(monkeypatch)
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "3"])
    assert code == 0 and doc["summary"]["pairs"] == 28
    assert walked == []  # neither the products nor the factors


def test_scan_checks_no_witness_input_and_reads_each_factor_once(monkeypatch):
    # The witnesses of a scan are built from the factors' own search
    # results, so the input checks of the public builder never run, and
    # each factor's record fields are read once, not once per pair.
    config = ScanConfig(generate_up_to=4)
    expected = render_scan_json(scan(config))

    def forbidden(*args, **kwargs):
        raise AssertionError("a witness input was checked")

    for name in ("_validate_isolatable", "is_maximal_independent"):
        monkeypatch.setattr(theorem, name, forbidden)
    read, real = [], cli._factor_fields

    def fields(analysis):
        read.append(analysis.graph)
        return real(analysis)

    monkeypatch.setattr(cli, "_factor_fields", fields)
    result = scan(config)
    assert render_scan_json(result) == expected
    assert any(record.witness_applicable for record in result.records)
    assert len(read) == len(set(read)) == len(cli.load_corpus(config))


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--gen-up-to", "4", "--max-n", "4"],
        ["scan", "--gen-up-to", "4", "--max-n", "4", "--format", "csv"],
        ["product", "Bg", "Bg"],
        ["product", "C`", "Bg"],  # 2K2 x P3: two components
        ["analyze", "Bg"],
        ["analyze", "Dhc"],  # C5
        ["analyze", "C`"],  # 2K2
    ],
)
def test_search_reports_match_full_walk_byte_for_byte(capsys, monkeypatch, argv):
    if argv[0] == "analyze":
        # analyze reads its report off the full walk, so the searches are
        # checked against its record instead.
        code, doc, _ = run_json(capsys, argv)
        expected = cli._report_dict(independence.is_well_covered(from_graph6(argv[1])))
        assert code == 0 and {key: doc[key] for key in expected} == expected
        return
    searched = run_cli(capsys, argv)
    monkeypatch.setattr(
        theorem, "is_well_covered", lambda graph, cap, orbits=None: full_walk_report(graph, cap)
    )
    assert run_cli(capsys, argv) == searched
    assert searched[0] == 0 and searched[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_checks_every_cap_before_any_search_or_pool(capsys, monkeypatch, jobs):
    """Every pair's largest component product is checked against the
    enumeration cap, in pair order, before the first search and before a
    pool starts, so the message is the same whatever ``--jobs`` is."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    record_searches(monkeypatch, forbid=True)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["scan", "--gen-up-to", "3", "--max-n", "3", "--enum-cap", "5", "--jobs", jobs]
    assert run_cli(capsys, argv) == (3, "", "error: graph order 6 exceeds enumeration cap 5\n")


def test_scan_enum_cap_below_product_order_exits_3(capsys):
    argv = ["scan", "--gen-up-to", "3", "--max-n", "3", "--enum-cap", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == "" and "enumeration cap 2" in err


def test_scan_default_enum_cap_follows_product_cap(tmp_path, capsys):
    corpus = tmp_path / "k1_k37.g6"
    corpus.write_text(f"@\n{to_graph6(complete_graph(37))}\n")
    argv = ["scan", "--corpus", str(corpus), "--max-n", "37", "--product-cap", "37"]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0 and doc["summary"]["pairs"] == 2
    assert doc["config"]["enum_cap"] == 37
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "2", "--max-n", "2"])
    assert code == 0 and doc["config"]["enum_cap"] == 36


def test_scan_report_echoes_every_config_field_but_parallelism(tmp_path, capsys):
    corpus = tmp_path / "p3.g6"
    corpus.write_text("Bg\n")
    argv = [
        "scan", "--corpus", str(corpus), "--gen-up-to", "2", "--max-n", "4",
        "--product-cap", "8", "--connected-only", "--enum-cap", "40", "--jobs", "2",
    ]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert set(doc["config"]) == set(ScanConfig._fields) - {"parallelism"}
    assert doc["config"] == {
        "corpus_paths": [str(corpus)],
        "generate_up_to": 2,
        "max_factor_order": 4,
        "max_product_order": 8,
        "connected_only": True,
        "enum_cap": 40,
    }


def test_scan_analyses_only_paired_factors(tmp_path, capsys):
    # K37 pairs with nothing under the product cap of 30, so its order above
    # the enumeration cap of 36 does not matter.
    corpus = tmp_path / "p3_k37.g6"
    corpus.write_text(f"Bg\n{to_graph6(complete_graph(37))}\n")
    code, doc, _ = run_json(capsys, ["scan", "--corpus", str(corpus), "--max-n", "40"])
    assert code == 0 and doc["summary"]["pairs"] == 1
    assert doc["records"][0]["g6_g"] == doc["records"][0]["g6_h"] == "Bg"


def test_scan_connected_only(capsys):
    code, doc, _ = run_json(capsys, ["scan", "--gen-up-to", "3", "--connected-only"])
    assert code == 0
    # connected classes: 1 + 1 + 2 -> 4 graphs -> 10 unordered pairs
    assert doc["summary"]["pairs"] == 10


def test_scan_records_sorted_and_csv_roundtrip(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    out_csv = tmp_path / "scan.csv"
    code1, _, _ = run_cli(capsys, ["scan", "--gen-up-to", "3", "--out", str(out_json)])
    code2, _, _ = run_cli(
        capsys, ["scan", "--gen-up-to", "3", "--format", "csv", "--out", str(out_csv)]
    )
    assert code1 == 0 and code2 == 0
    doc = json.loads(out_json.read_text())
    keys = [(r["g6_g"], r["g6_h"]) for r in doc["records"]]
    assert keys == sorted(keys)
    lines = out_csv.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["g6_g", "g6_h"]
    assert len(lines) == 1 + len(doc["records"])


def test_scan_out_overwrites_an_existing_file(tmp_path, capsys):
    target = tmp_path / "scan.json"
    target.write_text("x" * 100_000)
    assert run_cli(capsys, ["scan", "--gen-up-to", "2", "--out", str(target)])[0] == 0
    assert run_cli(capsys, ["scan", "--gen-up-to", "2"])[1] == target.read_text()


def test_scan_out_that_cannot_be_written_fails_before_the_scan(tmp_path, capsys, monkeypatch):
    def forbidden(config):
        raise AssertionError("scanned before the --out path was opened")

    monkeypatch.setattr(cli, "scan", forbidden)
    for target in (tmp_path / "missing" / "scan.json", tmp_path):
        code, out, err = run_cli(capsys, ["scan", "--out", str(target)])
        assert code == 2 and out == "" and err.startswith("error: ")


def test_scan_out_keeps_no_file_from_a_failed_scan(tmp_path, capsys):
    target = tmp_path / "scan.json"
    failing = ["scan", "--gen-up-to", "3", "--enum-cap", "2", "--out", str(target)]
    assert run_cli(capsys, failing)[0] == 3
    assert not target.exists()
    target.write_text("an earlier report")
    assert run_cli(capsys, failing)[0] == 3
    assert target.read_text() == "an earlier report"


def test_importing_the_cli_loads_no_process_pool():
    """The pool is imported by a scan that starts one, not by the CLI."""
    source = Path(cli.__file__).resolve().parents[1]
    check = (
        "import sys, wellcovered.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(unbuffered):
    """The console script, writing to a pipe whose reader is already gone,
    exits 128 + SIGPIPE in silence, whether stdout is buffered or not."""
    source = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source), "PYTHONUNBUFFERED": unbuffered}
    for argv in (["gen", "3"], ["scan", "--gen-up-to", "2"], ["witness", "Bg", "Bg"],
                 ["analyze", "Bg"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-c", "from wellcovered.cli import entrypoint; entrypoint()",
                 *argv],
                stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b""), argv


def test_pool_workers_build_each_orbit_table_once(tmp_path, monkeypatch):
    """Each pool worker gets the factor analyses once, with the one task
    that holds its share of the pairs, so no worker builds the orbit tables
    of the same analysis twice.  Which analyses' tables a worker builds
    depends on which order of a component pair it meets first."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched component_orbits reaches pool workers only when they are forked")
    log, real = tmp_path / "tables.log", FactorAnalysis.component_orbits.func

    def logged(analysis):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {to_graph6(analysis.graph)}\n")
        return real(analysis)

    tables = functools.cached_property(logged)
    tables.__set_name__(FactorAnalysis, "component_orbits")
    monkeypatch.setattr(FactorAnalysis, "component_orbits", tables)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reports, builders = [], []
    for jobs in (1, 2):
        log.write_text("")
        reports.append(render_scan_json(scan(ScanConfig(generate_up_to=4, parallelism=jobs))))
        built = log.read_text().splitlines()
        assert built and len(built) == len(set(built))
        builders.append({line.split()[0] for line in built})
    assert reports[0] == reports[1]
    assert builders[0] == {str(os.getpid())} and str(os.getpid()) not in builders[1]


def test_default_scan_json_equals_the_stdlib_rendering(capsys):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        digest = json.load(handle)["scan-small"]["sha256"]
    code, out, _ = run_cli(capsys, ["scan"])
    assert code == 0 and hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_scan_csv_header_and_rows(capsys):
    argv = ["scan", "--gen-up-to", "3", "--max-n", "3", "--format", "csv"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "g6_g,g6_h,g_well_covered,g_alpha,g_min_maximal,g_isolatable,"
        "h_well_covered,h_alpha,h_min_maximal,h_isolatable,product_n,product_m,"
        "product_well_covered,product_alpha,product_min_maximal,theorem_consistent,"
        "witness_applicable,witness_swapped,witness_big_size,witness_small_size"
    )
    assert lines[1] == "@,@,true,1,1,0,true,1,1,0,1,0,true,1,1,true,false,,,"
    assert "BW,BW,false,2,1,0;1,false,2,1,0;1,9,12,false,5,3,true,true,false,5,3" in lines


def test_scan_deterministic_across_jobs(monkeypatch):
    # 28 pairs, not a multiple of 3: worker w takes pairs w, w + 3, ..., and
    # its records go back to those places.
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    base = dict(generate_up_to=3, max_factor_order=3)
    reports = [render_scan_json(scan(ScanConfig(parallelism=jobs, **base))) for jobs in (1, 2, 3)]
    assert json.loads(reports[0])["summary"]["pairs"] == 28
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_spawned_pool_workers_give_the_serial_report():
    """Workers started by ``spawn`` import the package afresh and get the
    analyses only through their task.  No other test starts a pool outside
    ``fork``, which is not the default on every platform."""
    source = Path(cli.__file__).resolve().parents[1]
    script = (
        "import multiprocessing, os, sys\n"
        "from wellcovered import cli\n"
        "multiprocessing.set_start_method('spawn')\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(['scan', '--gen-up-to', '3', '--max-n', '3', '--jobs', sys.argv[1]]))\n"
    )

    def run(jobs):
        return subprocess.run(
            [sys.executable, "-c", script, jobs], env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True, text=True, check=True,
        )

    serial, spawned = run("1"), run("2")
    assert spawned.stderr == serial.stderr == "scanned 28 pairs, 0 violations\n"
    assert spawned.stdout == serial.stdout and json.loads(serial.stdout)["summary"]["pairs"] == 28


def test_scan_worker_count_is_clamped(monkeypatch):
    # The CPUs that count are those this process may run on, not the host's.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli._worker_count(5000, 1378) == 4
    assert cli._worker_count(5000, 3) == 3
    assert cli._worker_count(2, 1378) == 2
    assert cli._worker_count(1, 1378) == 1
    assert cli._worker_count(8, 0) == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert cli._worker_count(2, 1378) == 1
    # Without an affinity call, cpu_count clamps.
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._worker_count(5000, 1378) == 8
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(8, 1378) == 1


def test_scan_violation_exit_code(capsys, monkeypatch):
    # No real pair can violate the product consistency claim, so fake one to
    # pin the exit-code contract.
    from wellcovered import verify_pair

    real = scan(ScanConfig(generate_up_to=2))
    record = real.records[0]
    verdict = verify_pair(FactorAnalysis(path_graph(3)), FactorAnalysis(path_graph(3)))
    fake = ScanResult(
        config=real.config,
        records=real.records,
        violations=((record, verdict),),
    )
    monkeypatch.setattr(cli, "scan", lambda config: fake)
    code = cli.main(["scan", "--gen-up-to", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["summary"]["violations"]


def test_scan_violation_through_verify_pair(tmp_path, capsys, monkeypatch):
    # Reports in which only the 9-vertex products are well-covered make every
    # pair of a corpus of 3-vertex factors a violation.  Three pairs, so that
    # with --jobs 2 the pool workers find the violating records and the
    # parent renders them from its own verify_pair verdicts.
    real = theorem.is_well_covered

    def only_products_well_covered(graph, cap, orbits=None):
        report = real(graph, cap)
        return report._replace(witness_min=report.witness_max) if graph.n == 9 else report

    monkeypatch.setattr(theorem, "is_well_covered", only_products_well_covered)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    corpus = tmp_path / "p3.g6"
    corpus.write_text("Bg\nBW\n")  # P3 centred at vertex 1, then at vertex 2

    def scan_violations(jobs):
        code, out, err = run_cli(capsys, ["scan", "--corpus", str(corpus), "--jobs", jobs])
        assert code == 1 and "3 pairs, 3 violations" in err
        return out

    out = scan_violations("1")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    summary = json.loads(out)["summary"]
    assert len(summary["violations"]) == 3
    for violation in summary["violations"]:
        assert violation["record"]["theorem_consistent"] is False
        assert violation["product_report"]["well_covered"] is True
        assert violation["g_report"]["well_covered"] is False
        assert violation["h_report"]["well_covered"] is False
        assert violation["product_report"]["alpha"] == 5
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched is_well_covered reaches pool workers only when they are forked")
    assert scan_violations("2") == out


def test_scan_calls_verify_pair_only_for_a_violating_pair(monkeypatch):
    # Only the 9-vertex component products P3 x P3, P3 x K3 and K3 x K3 are
    # made well-covered, so of the 28 pairs of order <= 3 only P3 x P3 (BW)
    # violates the claim: K3 (Bw) is well-covered.
    real = theorem.is_well_covered

    def only_nine_vertex_products_well_covered(graph, cap, orbits=None):
        report = real(graph, cap, orbits)
        return report._replace(witness_min=report.witness_max) if graph.n == 9 else report

    monkeypatch.setattr(theorem, "is_well_covered", only_nine_vertex_products_well_covered)
    verified = count_calls(monkeypatch, "verify_pair")
    result = scan(ScanConfig(generate_up_to=3))
    assert len(result.records) == 28
    assert [(r.g6_g, r.g6_h) for r, _ in result.violations] == [("BW", "BW")]
    assert [tuple(to_graph6(a.graph) for a in pair) for pair in verified] == [("BW", "BW")]
    assert result.violations[0][1].product_report.verdict


def _record_from_verdict(g6_g, g6_h, verdict):
    """The scan record of a pair read off its full verification."""
    factors = [
        (a.report.verdict, a.report.alpha, a.report.min_maximal, tuple(w.vertex for w in a.isolatable))
        for a in (verdict.g_analysis, verdict.h_analysis)
    ]
    product, witness = verdict.product_report, verdict.witness
    return cli.ScanRecord(
        g6_g, g6_h, *factors[0], *factors[1], verdict.product_order, verdict.product_size,
        product.verdict, product.alpha, product.min_maximal, verdict.theorem_consistent,
        witness is not None, verdict.witness_swapped if witness else None,
        witness.big.bit_count() if witness else None, witness.small.bit_count() if witness else None,
    )


def test_scan_records_match_verify_pair():
    """Every record built from the component sizes equals the one read off
    ``verify_pair`` on the same pair, on the scan of order <= 4 and on a
    seeded corpus of disconnected graphs whose components interleave, where
    pairs have many component products and meet them in both orders."""
    rng = random.Random(3305)
    unions = {to_graph6(graph): graph for graph in (_interleaved_union(rng) for _ in range(24))}
    analyses = {g6: FactorAnalysis(graph) for g6, graph in unions.items()}
    pairs = list(itertools.combinations_with_replacement(sorted(analyses), 2))
    records = cli._evaluate(pairs, analyses)
    records += scan(ScanConfig(generate_up_to=4)).records
    assert len(records) == len(pairs) + 171
    for record in records:
        g, h = (FactorAnalysis(from_graph6(g6)) for g6 in (record.g6_g, record.g6_h))
        assert record == _record_from_verdict(record.g6_g, record.g6_h, verify_pair(g, h))


def test_results_are_named_tuples_and_only_caching_classes_are_dataclasses():
    """Every result record is a NamedTuple; ``Graph`` and ``FactorAnalysis``
    stay dataclasses because their ``cached_property`` facts need an
    instance ``__dict__``.  A verdict, its factor analyses and witness
    included, survives pickling, as the analyses a ``scan --jobs`` pool
    receives must."""
    modules = [wellcovered] + [
        importlib.import_module(f"wellcovered.{name}")
        for name in ("cli", "corpus", "graphs", "independence", "theorem")
    ]
    classes = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == {
        "Graph", "FactorAnalysis",
    }
    records = (
        wellcovered.WellCoveredReport, wellcovered.IsolatableWitness,
        wellcovered.ProductWitness, wellcovered.PairVerdict,
        ScanConfig, cli.ScanRecord, ScanResult,
    )
    assert all(issubclass(record, tuple) for record in records)
    p3 = FactorAnalysis(path_graph(3))
    verdict = theorem.verify_pair(p3, p3)
    assert verdict.witness is not None
    copy = pickle.loads(pickle.dumps(verdict))
    assert copy == verdict


def test_scan_gen_up_to_validation(capsys):
    code, out, err = run_cli(capsys, ["scan", "--gen-up-to", "9"])
    assert code == 2 and out == ""
    assert err.endswith(
        "error: argument --gen-up-to: must be an integer between 0 and 8, got '9'\n"
    )


# --- parser reuse --------------------------------------------------------------


def test_main_returns_the_parser_exit_status_and_help_states_the_enum_cap_default(capsys):
    assert cli.main(["scan", "--jobs", "x"]) == 2
    assert "argument --jobs: must be a positive integer, got 'x'" in capsys.readouterr().err
    for command, default in (
        ("analyze", "36"),
        ("witness", "36"),
        ("product", "the larger of 36 and the product cap"),
        ("scan", "the larger of 36 and the product cap"),
    ):
        assert cli.main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"--enum-cap ENUM_CAP enumeration order cap (default {default})" in text


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    corpus = tmp_path / "p3.g6"
    corpus.write_text("Bg\n")
    argvs = [
        ["analyze", "Bg"],
        ["product", "Bg", "Bg"],
        ["witness", "A_", "A_"],
        ["gen", "3"],
        ["scan", "--gen-up-to", "2", "--corpus", str(corpus), "--connected-only"],
        ["scan", "--frobnicate"],
        ["scan", "--gen-up-to", "3", "--connected-only"],
        ["scan", "--gen-up-to", "3"],
    ]

    def outcome(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    reused = [outcome(argv) for argv in argvs]
    assert cli.build_parser() is parser
    assert [code for code, _, _ in reused] == [0, 0, 4, 0, 0, 2, 0, 0]
    assert reused == fresh
    assert cli.main(["scan", "--frobnicate"]) == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


# --- documented API ------------------------------------------------------------


def test_readme_library_table_and_all_name_only_real_attributes():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text("utf-8")
    table = readme.split("## Library overview", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    assert len(rows) == 5
    for module_cell, contents in rows:
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", contents)
        assert names and [n for n in names if not hasattr(module, n)] == [], module
    assert wellcovered.__all__ == sorted(set(wellcovered.__all__))
    assert [n for n in wellcovered.__all__ if not hasattr(wellcovered, n)] == []
    # The trusted base's size as the README states it, against wc -l.
    stated = re.findall(r"(\d+) lines\s+\(`wc -l src/wellcovered/graphs\.py`", readme)
    graphs_py = (root / "src" / "wellcovered" / "graphs.py").read_bytes()
    assert [int(n) for n in stated] == [graphs_py.count(b"\n")]


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
