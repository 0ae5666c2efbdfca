"""The primitives of the paper's structural lemmas, which no command of the
package calls: induced subgraphs, greedy independent decompositions and
their diagonal sets, the clique remainder and swap step of a maximum
independent set, and the disjoint-MIS check.  They live beside the oracles
so that the package ships only the verifier, and the tests check the
lemmas with them on small graphs.  Their walks go through
``independence._walk``, so the walk recorder of :mod:`oracles` sees them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from wellcovered import (
    DEFAULT_ENUMERATION_CAP,
    Graph,
    VertexSet,
    cartesian_product,
    closed_neighborhood,
    enumerate_maximal_independent_sets,
    independence,
    independence_number,
    is_maximal_independent,
    is_well_covered,
    isolatable_vertices,
)
from wellcovered.graphs import _check_set, _rectangle_mask, iter_bits

DEFAULT_DECOMPOSITION_CAP = 10


@dataclass(frozen=True)
class SubgraphMap:
    """Vertex correspondence created by taking an induced subgraph.

    New vertex i corresponds to original vertex ``kept[i]``; ``kept`` is
    strictly increasing, so induced subgraphs preserve relative vertex order.
    """

    kept: tuple[int, ...]
    host_size: int

    def __len__(self) -> int:
        return len(self.kept)


def induced_subgraph(graph: Graph, s: VertexSet) -> tuple[Graph, SubgraphMap]:
    """Subgraph induced by S, with the vertex correspondence."""
    _check_set(graph, s)
    kept = s.members
    index = {orig: new for new, orig in enumerate(kept)}
    rows = []
    for orig in kept:
        row = 0
        for u in iter_bits(graph.adj[orig] & s.mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(kept), tuple(rows)), SubgraphMap(kept, graph.n)


def delete_closed_neighborhood(graph: Graph, s: VertexSet) -> tuple[Graph, SubgraphMap]:
    """G - N[S] for an independent set S."""
    _check_set(graph, s)
    for v in s:
        if graph.adj[v] & s.mask:
            raise ValueError("set is not independent")
    remainder = closed_neighborhood(graph, s).complement()
    return induced_subgraph(graph, remainder)


def is_clique(graph: Graph, s: VertexSet) -> bool:
    """True iff every pair of distinct members of S is adjacent."""
    _check_set(graph, s)
    return all(s.mask & ~graph.closed_adj[v] == 0 for v in s)


@dataclass(frozen=True)
class GreedyDecomposition:
    """Ordered partition of V(G) where each block is maximal independent in
    the graph left after removing the earlier blocks."""

    n: int
    blocks: tuple[VertexSet, ...]

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def greedy_decomposition(
    graph: Graph, order: Iterable[int] | None = None
) -> GreedyDecomposition:
    """Greedy independent decomposition along a vertex scan order.

    Each block is built by scanning the residual vertices in ``order`` and
    adding a vertex whenever it is not adjacent to the block so far, which
    makes the block maximal independent in the residual graph.  Deterministic
    given ``order``; the natural order 0..n-1 is the default.
    """
    scan = tuple(range(graph.n)) if order is None else tuple(order)
    if sorted(scan) != list(range(graph.n)):
        raise ValueError("order is not a permutation of the vertices")
    remaining = graph.full_mask
    blocks: list[VertexSet] = []
    while remaining:
        block = 0
        blocked = 0
        for v in scan:
            bit = 1 << v
            if bit & remaining and not bit & blocked:
                block |= bit
                blocked |= graph.closed_adj[v]
        blocks.append(VertexSet(block, graph.n))
        remaining &= ~block
    return GreedyDecomposition(graph.n, tuple(blocks))


def enumerate_greedy_decompositions(
    graph: Graph,
    limit: int | None = None,
    cap: int = DEFAULT_DECOMPOSITION_CAP,
) -> Iterator[GreedyDecomposition]:
    """Stream all greedy independent decompositions by backtracking over the
    choice of maximal independent set at each stage.

    Decompositions are ordered lists: the same blocks in a different order
    count as distinct.  Complete when not truncated by ``limit``.
    """
    independence._check_cap(graph.n, cap)

    def stage(remaining: int, prefix: tuple[VertexSet, ...]) -> Iterator[GreedyDecomposition]:
        if not remaining:
            yield GreedyDecomposition(graph.n, prefix)
            return
        blocks: list[int] = []
        independence._walk(graph, blocks.append, remaining)
        for block in blocks:
            yield from stage(remaining & ~block, prefix + (VertexSet(block, graph.n),))

    stream = stage(graph.full_mask, ())
    return stream if limit is None else itertools.islice(stream, limit)


def is_greedy_decomposition(graph: Graph, decomposition: GreedyDecomposition) -> bool:
    """Validate the decomposition invariants against its host graph."""
    if decomposition.n != graph.n:
        return False
    remaining = graph.full_mask
    for block in decomposition.blocks:
        if block.n != graph.n:
            return False
        if not independence._maximal_independent_within(graph, remaining, block.mask):
            return False
        remaining &= ~block.mask
    return remaining == 0


def diagonal_set(
    left: GreedyDecomposition,
    right: GreedyDecomposition,
    n_right: int,
) -> VertexSet:
    """Union of the blockwise rectangles A_i x B_i, i up to the shorter
    decomposition, in the row-major labels of the product with ``n_right``
    columns.  Always maximal independent in the Cartesian product."""
    if right.n != n_right:
        raise ValueError(f"right decomposition of order {right.n} is not of order {n_right}")
    depth = min(len(left.blocks), len(right.blocks))
    mask = 0
    for i in range(depth):
        mask |= _rectangle_mask(left.blocks[i].mask, right.blocks[i].mask, n_right)
    return VertexSet(mask, left.n * n_right)


def _check_alpha_set(graph: Graph, s: VertexSet, cap: int) -> None:
    if not is_maximal_independent(graph, s):
        raise ValueError("set is not maximal independent")
    if len(s) != independence_number(graph, cap):
        raise ValueError("set is not a maximum independent set")


def clique_remainder(
    graph: Graph, maximum_set: VertexSet, x: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Graph, SubgraphMap]:
    """G - N[I - {x}] for a maximum independent set I and x in I.

    In a graph with no isolatable vertex this remainder is a clique of order
    at least two; x always survives in it.
    """
    _check_set(graph, maximum_set)
    _check_alpha_set(graph, maximum_set, cap)
    if x not in maximum_set:
        raise ValueError(f"vertex {x} is not in the given set")
    return delete_closed_neighborhood(graph, maximum_set.without_vertex(x))


def swap_step(
    graph: Graph,
    maximum_set: VertexSet,
    v: int,
    other_set: VertexSet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> VertexSet:
    """Exchange v in a maximum independent set I for the least remainder
    vertex outside J.

    With I a maximum independent set, v in I, and J maximal independent, the
    remainder F = G - N[I - {v}] is scanned for the least vertex w != v with
    w not in J; the result (I - {v}) | {w} is independent, has the same size
    as I, and meets J in one vertex fewer whenever v is in J.
    """
    _check_set(graph, maximum_set)
    _check_set(graph, other_set)
    _check_alpha_set(graph, maximum_set, cap)
    if v not in maximum_set:
        raise ValueError(f"vertex {v} is not in the given set")
    if not is_maximal_independent(graph, other_set):
        raise ValueError("swap partner set is not maximal independent")
    remainder, back = delete_closed_neighborhood(graph, maximum_set.without_vertex(v))
    if remainder.n < 2:
        raise ValueError(
            "remainder has fewer than two vertices; the graph has an isolatable vertex"
        )
    for w in back.kept:
        if w != v and w not in other_set:
            return maximum_set.without_vertex(v).with_vertex(w)
    raise ValueError(
        "every remainder vertex other than v lies in the partner set; "
        "the remainder is not a clique"
    )


@dataclass(frozen=True)
class FactorDisjointMis:
    """Disjoint maximal-independent-set structure of one factor."""

    all_have_disjoint: bool
    counterexample: VertexSet | None
    disjoint_equal_size: bool
    unequal_pair: tuple[VertexSet, VertexSet] | None


@dataclass(frozen=True)
class DisjointMisReport:
    """Outcome of the disjoint-MIS check on a factor pair.

    The hypotheses are: neither factor has an isolatable vertex and the
    product is well-covered.  When they fail no judgment is made and the
    factor fields are None.
    """

    hypotheses_met: bool
    g_isolatable_free: bool
    h_isolatable_free: bool
    product_well_covered: bool
    g_result: FactorDisjointMis | None
    h_result: FactorDisjointMis | None
    passed: bool | None


def check_disjoint_mis(
    graph_left: Graph,
    graph_right: Graph,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DisjointMisReport:
    """Verify the disjoint-MIS conclusions for an isolatable-free pair with a
    well-covered product.

    When the hypotheses hold, every maximal independent set of each factor
    must admit a disjoint maximal independent set, and at least one factor
    must have all its disjoint maximal-independent-set pairs equal in size.
    """
    g_free = not isolatable_vertices(graph_left, cap)
    h_free = not isolatable_vertices(graph_right, cap)
    product = cartesian_product(graph_left, graph_right)
    product_wc = is_well_covered(product, cap).verdict
    if not (g_free and h_free and product_wc):
        return DisjointMisReport(
            hypotheses_met=False,
            g_isolatable_free=g_free,
            h_isolatable_free=h_free,
            product_well_covered=product_wc,
            g_result=None,
            h_result=None,
            passed=None,
        )
    g_result = _factor_disjoint_mis(graph_left, cap)
    h_result = _factor_disjoint_mis(graph_right, cap)
    passed = (
        g_result.all_have_disjoint
        and h_result.all_have_disjoint
        and (g_result.disjoint_equal_size or h_result.disjoint_equal_size)
    )
    return DisjointMisReport(
        hypotheses_met=True,
        g_isolatable_free=True,
        h_isolatable_free=True,
        product_well_covered=True,
        g_result=g_result,
        h_result=h_result,
        passed=passed,
    )


def _factor_disjoint_mis(graph: Graph, cap: int) -> FactorDisjointMis:
    """The first maximal independent set with no disjoint partner, and the
    first pair S before T of disjoint sets of different sizes, in
    enumeration order, by testing every pair of the factor's k maximal
    independent sets: O(k^2) mask ANDs, with k at most 12 on seven vertices."""
    n = graph.n
    sets = [s.mask for s in enumerate_maximal_independent_sets(graph, cap)]
    counterexample = next(
        (VertexSet(s, n) for s in sets if not any(s & t == 0 for t in sets if t != s)), None
    )
    unequal = next(
        (
            (VertexSet(s, n), VertexSet(t, n))
            for i, s in enumerate(sets)
            for t in sets[i + 1:]
            if s & t == 0 and s.bit_count() != t.bit_count()
        ),
        None,
    )
    return FactorDisjointMis(
        all_have_disjoint=counterexample is None,
        counterexample=counterexample,
        disjoint_equal_size=unequal is None,
        unequal_pair=unequal,
    )
