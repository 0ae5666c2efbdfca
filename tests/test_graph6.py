import random

import pytest

from wellcovered import GRAPH6_MAX_ORDER, Graph, Graph6Error, from_graph6, to_graph6

from oracles import (
    complete_graph,
    cycle_graph,
    nx_encode_graph6,
    nx_parse_graph6,
    path_graph,
)


def test_parse_k2():
    g = from_graph6("A_")
    assert g.n == 2
    assert list(g.edges()) == [(0, 1)]


def test_parse_k3():
    g = from_graph6("Bw")
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


def test_parse_p3():
    g = from_graph6("Bg")
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (1, 2)}


def test_encode_k2_and_k1():
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(Graph(1, (0,))) == "@"


def test_order_zero_round_trip():
    g = from_graph6("?")
    assert g.n == 0
    assert to_graph6(g) == "?"


def test_header_tolerated_never_emitted():
    g = from_graph6(">>graph6<<A_")
    assert g.n == 2
    assert to_graph6(g) == "A_"


def test_trailing_newline_tolerated():
    assert from_graph6("Bg\n").n == 3


@pytest.mark.parametrize(
    "line",
    [
        "",                # empty
        " ",               # blank
        "A",               # missing data byte
        "A__",             # extra data byte
        "A@",              # nonzero padding bits
        "~??",             # multi-byte size form
        "A" + chr(62),     # byte below 63
        "A" + chr(127),    # byte above 126
        "Büg",             # non-ascii
    ],
)
def test_parse_errors(line):
    with pytest.raises(Graph6Error):
        from_graph6(line)


def test_encode_oversize():
    with pytest.raises(Graph6Error):
        to_graph6(Graph.from_edges(63, []))


def test_agreement_with_reference_codec_on_named_graphs():
    for g in [path_graph(1), path_graph(3), cycle_graph(5), cycle_graph(6), complete_graph(4)]:
        line = to_graph6(g)
        ref_n, ref_edges = nx_parse_graph6(line)
        assert ref_n == g.n
        assert ref_edges == set(g.edges())
        assert nx_encode_graph6(g.n, g.edges()) == line


def test_round_trip_random_graphs_vs_reference():
    """Orders 0 to GRAPH6_MAX_ORDER, each empty, sparse and dense.  A decoded
    graph skips ``Graph``'s checks, so each must also pass them."""
    rng = random.Random(20240817)
    orders = list(range(GRAPH6_MAX_ORDER + 1)) + [rng.randrange(0, 13) for _ in range(60)]
    for n in orders:
        for density in (0.0, 0.08, 0.4, 0.9, 1.0):
            edges = [e for e in
                     ((i, j) for i in range(n) for j in range(i + 1, n))
                     if rng.random() < density]
            g = Graph.from_edges(n, edges)
            line = to_graph6(g)
            back = from_graph6(line)
            assert back == g
            assert Graph(back.n, back.adj) == back
            assert to_graph6(back) == line
            assert nx_encode_graph6(n, edges) == line
            ref_n, ref_edges = nx_parse_graph6(line)
            assert (ref_n, ref_edges) == (n, set(g.edges()))
