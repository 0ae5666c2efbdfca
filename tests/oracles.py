"""Brute-force oracles, small-graph builders and a walk recorder shared by
the tests.

The oracles recompute everything from first principles over plain Python
sets (or through networkx, for the reference graph6 codec and the atlas of
small graphs) and never touch the package's bitmask code paths.  The one
exception is :func:`full_walk_report`, the reference for the searches of
``is_well_covered``, which reads every maximal independent set off the
package's full enumeration.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

import networkx as nx
from hypothesis import strategies as st

from wellcovered import (
    Graph,
    WellCoveredReport,
    enumerate_maximal_independent_sets,
    independence,
    theorem,
)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


@st.composite
def random_graphs(draw, min_n=0, max_n=12):
    """Random graphs of order min_n..max_n at one of four edge densities."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, x in zip(pairs, keep) if x < density])


def record_walks(monkeypatch) -> list[int]:
    """Record the order of every graph (or induced subgraph) whose maximal
    independent sets are walked, through ``independence._walk`` as both
    ``independence`` and ``theorem`` look it up.

    Only walks without ``targets`` are recorded.  The one caller that passes
    them is the certificate search of an isolatable vertex x, whose targets
    add N(x) to its universe G - N[x] and which stops at its first set; for
    an isolated x, N(x) is empty and the targets equal the universe."""
    walked = []
    original = independence._walk

    def recorded(graph, leaf, universe=None, targets=None):
        if targets is None:
            walked.append(graph.n)
        return original(graph, leaf, universe, targets)

    monkeypatch.setattr(independence, "_walk", recorded)
    monkeypatch.setattr(theorem, "_walk", recorded)
    return walked


def brute_maximal_independent_sets(n: int, edges) -> list[frozenset[int]]:
    """Filter all 2^n subsets; sorted lexicographically by ascending
    vertex sequence."""
    edges = [tuple(e) for e in edges]
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found = []
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            chosen = set(combo)
            if any(u in chosen and v in chosen for u, v in edges):
                continue
            if all(v in chosen or adj[v] & chosen for v in range(n)):
                found.append(frozenset(chosen))
    found.sort(key=lambda s: tuple(sorted(s)))
    return found


def brute_isolatable_vertices(n: int, edges) -> set[int]:
    """x is isolatable iff some independent M over all subsets leaves
    exactly {x} after deleting N[M]."""
    edges = [tuple(e) for e in edges]
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    isolatable = set()
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            chosen = set(combo)
            if any(u in chosen and v in chosen for u, v in edges):
                continue
            closed = set(chosen)
            for v in chosen:
                closed |= adj[v]
            remainder = set(range(n)) - closed
            if len(remainder) == 1:
                isolatable.add(next(iter(remainder)))
    return isolatable


def nx_parse_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    g = nx.from_graph6_bytes(line.encode("ascii"))
    return g.number_of_nodes(), {tuple(sorted(e)) for e in g.edges()}


def nx_encode_graph6(n: int, edges) -> str:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def brute_canonical_mask(n: int, edges) -> int:
    """Lexicographically least column-major upper-triangle bit-string over
    all vertex relabelings, as an integer with the first pair bit most
    significant."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for perm in permutations(range(n)):
        mask = 0
        for i, j in pairs:
            mask = (mask << 1) | (perm[j] in adj[perm[i]])
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def burnside_class_count(n: int) -> int:
    """Number of isomorphism classes of simple graphs on n vertices, via
    orbit counting over the pair action of the symmetric group."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0
    for perm in permutations(range(n)):
        seen = set()
        cycles = 0
        for pair in pairs:
            if pair in seen:
                continue
            cycles += 1
            current = pair
            while current not in seen:
                seen.add(current)
                a, b = perm[current[0]], perm[current[1]]
                current = (a, b) if a < b else (b, a)
        total += 1 << cycles
    return total // math.factorial(n)


@functools.cache
def _atlas() -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    out = []
    for g in nx.generators.atlas.graph_atlas_g():
        n = g.number_of_nodes()
        assert set(g.nodes()) == set(range(n))
        out.append((n, tuple(tuple(sorted(e)) for e in g.edges())))
    return tuple(out)


def atlas_graphs(min_n: int = 1, max_n: int = 7) -> list[tuple[int, list[tuple[int, int]]]]:
    """All isomorphism classes with min_n..max_n vertices, from the bundled
    atlas of small graphs (read once per session)."""
    return [(n, list(edges)) for n, edges in _atlas() if min_n <= n <= max_n]


def full_walk_report(graph: Graph, cap: int = 36) -> WellCoveredReport:
    """The well-covered report read off every maximal independent set: the
    first sets in enumeration order of the largest and the smallest size."""
    sets = list(enumerate_maximal_independent_sets(graph, cap))
    big, small = max(sets, key=len), min(sets, key=len)
    return WellCoveredReport(
        verdict=len(big) == len(small),
        alpha=len(big),
        min_maximal=len(small),
        witness_max=big,
        witness_min=small,
    )
