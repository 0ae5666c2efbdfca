"""Brute-force oracles, small-graph builders, a walk recorder and the
fixed-orientation witness shared by the tests.

The oracles recompute everything from first principles over plain Python
sets (or through networkx, for the reference graph6 codec and the atlas of
small graphs) and never touch the package's bitmask code paths.  The
exceptions are :func:`full_walk_report`, the reference for the searches of
``is_well_covered``, which reads every maximal independent set off the
package's full enumeration, and :func:`reference_product_witness`, the
witness construction written with ``VertexSet`` arithmetic, the reference
for the mask kernel of ``build_product_witness``.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

import networkx as nx
from hypothesis import strategies as st

from wellcovered import (
    Graph,
    ProductWitness,
    VertexSet,
    WellCoveredReport,
    analyze_factor,
    build_product_witness,
    enumerate_maximal_independent_sets,
    independence,
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
    independent sets are walked, through ``independence._walk``: the package
    looks it up in ``independence`` only, and :mod:`paper_lemmas` through
    that module.

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


def brute_automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps the edge set onto itself."""
    edges = list(edges)
    edge_set = {frozenset(edge) for edge in edges}
    return [
        perm for perm in permutations(range(n))
        if all(frozenset((perm[u], perm[v])) in edge_set for u, v in edges)
    ]


def brute_stabilizer_orbits(n: int, automorphisms) -> list[list[frozenset[int]]]:
    """Row k, for k = 0, ..., n: the orbit of each vertex under the given
    permutations that fix each of 0, ..., k-1."""
    rows = []
    for k in range(n + 1):
        fixing = [perm for perm in automorphisms if perm[:k] == tuple(range(k))]
        rows.append([frozenset(perm[v] for perm in fixing) for v in range(n)])
    return rows


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


def reference_product_witness(
    product: Graph, graph_left: Graph, x: int, isolating_set: VertexSet,
    column_big: VertexSet, column_small: VertexSet,
) -> dict[str, VertexSet]:
    """The product sets of the constructive witness, by name, built with
    ``VertexSet`` arithmetic one vertex at a time: the core extends the
    rectangle of the isolating set and the big column greedily, in ascending
    product index, over the rows outside N[x]; column x takes either column;
    the gaps are the rows of N(x) that the core and column leave undominated,
    patched greedily, small first and then extended to big.  The inputs are
    taken as valid."""
    n, n_right = product.n, column_big.n

    def rectangle(left, right) -> VertexSet:
        return VertexSet.of(n, [g * n_right + h for g in left for h in right])

    def closed(s: VertexSet) -> VertexSet:
        return VertexSet.of(n, set(s).union(*(product.neighbors(v) for v in s)))

    def greedy(allowed: VertexSet, chosen: VertexSet) -> VertexSet:
        for v in allowed - chosen:
            if closed(VertexSet.of(n, [v])).isdisjoint(chosen):
                chosen = chosen.with_vertex(v)
        return chosen

    rows = range(graph_left.n)
    every_column = range(n_right)
    outside = rectangle([g for g in rows if g != x and not graph_left.has_edge(g, x)],
                        every_column)
    neighbor_block = rectangle(graph_left.neighbors(x), every_column)
    core = greedy(outside, rectangle(isolating_set, column_big))
    core_big = core | rectangle([x], column_big)
    core_small = core | rectangle([x], column_small)
    gaps_big = neighbor_block - closed(core_big)
    gaps_small = neighbor_block - closed(core_small)
    patch_small = greedy(gaps_small, VertexSet.empty(n))
    patch_big = greedy(gaps_big, patch_small)
    return {
        "core": core, "core_big": core_big, "core_small": core_small,
        "gaps_big": gaps_big, "gaps_small": gaps_small,
        "patch_small": patch_small, "patch_big": patch_big,
        "big": core_big | patch_big, "small": core_small | patch_small,
    }


def fixed_orientation_witness(left: Graph, right: Graph) -> ProductWitness | None:
    """The constructive witness in the orientation (left, right) only, from
    the lemma's hypotheses as the two analyses hold them: the left factor's
    first isolatable vertex and the right factor's first extreme sets.  None
    when the left factor has no isolatable vertex or the right one is
    well-covered."""
    iso = analyze_factor(left).first_isolatable
    if iso is None:
        return None
    report = analyze_factor(right).report
    if report.verdict:
        return None
    return build_product_witness(left, iso, right, report.witness_max, report.witness_min)
