"""Independent-set machinery: maximal independent set enumeration,
well-coveredness, isolatable vertices, greedy independent decompositions,
diagonal sets, and the clique-remainder / swap-step primitives.

Enumeration is exponential by nature; every entry point takes an order cap
and raises :class:`CapExceeded` before doing any work when the input is too
large.  All outputs are deterministic: maximal independent sets stream in
lexicographic order of their ascending vertex sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import (
    CapExceeded,
    Graph,
    ProductIndexMap,
    SubgraphMap,
    VertexSet,
    _check_set,
    delete_closed_neighborhood,
    iter_bits,
)

DEFAULT_ENUMERATION_CAP = 36
DEFAULT_DECOMPOSITION_CAP = 10


@dataclass(frozen=True)
class WellCoveredReport:
    """Outcome of the well-covered decision with certifying sets.

    ``verdict`` is true iff every maximal independent set has the same size,
    in which case ``alpha == min_maximal``.  The witnesses are the first sets
    in enumeration order attaining the extreme sizes.
    """

    verdict: bool
    alpha: int
    min_maximal: int
    witness_max: VertexSet
    witness_min: VertexSet


@dataclass(frozen=True)
class IsolatableWitness:
    """A vertex x with an independent set whose closed-neighborhood deletion
    leaves exactly {x}."""

    vertex: int
    certificate: VertexSet


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


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(f"graph order {order} exceeds enumeration cap {cap}")


def is_independent(graph: Graph, s: VertexSet) -> bool:
    """True iff no edge joins two members of S."""
    _check_set(graph, s)
    for v in s:
        if graph.adj[v] & s.mask:
            return False
    return True


def is_maximal_independent(graph: Graph, s: VertexSet) -> bool:
    """True iff S is independent and dominating (no vertex can be added)."""
    _check_set(graph, s)
    return _maximal_independent_within(graph, graph.full_mask, s.mask)


def _maximal_independent_within(graph: Graph, allowed_mask: int, chosen_mask: int) -> bool:
    """Maximal independence of ``chosen_mask`` inside the subgraph induced by
    ``allowed_mask``, checked without building the subgraph."""
    if chosen_mask & ~allowed_mask:
        return False
    dominated = chosen_mask
    for v in iter_bits(chosen_mask):
        if graph.adj[v] & chosen_mask:
            return False
        dominated |= graph.adj[v]
    return allowed_mask & ~dominated == 0


def enumerate_maximal_independent_sets(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[VertexSet]:
    """Stream every maximal independent set exactly once.

    Emission order is lexicographic on the ascending vertex sequence, so the
    first emitted set is the greedy one.  The cap is checked eagerly, before
    the stream produces anything.
    """
    _check_cap(graph.n, cap)
    return (VertexSet(mask, graph.n) for mask in _mis_masks(graph))


def _mis_masks(graph: Graph, universe: int | None = None) -> Iterator[int]:
    """Masks of the maximal independent sets of the subgraph induced by
    ``universe`` (the whole graph by default), in lexicographic order of
    their ascending vertex sequences.  No cap check: callers make it."""
    full = graph.full_mask if universe is None else universe
    closed = graph.closed_adj

    def walk(chosen: int, dominated: int, start: int) -> Iterator[int]:
        undominated = full & ~dominated
        if not undominated:
            yield chosen
            return
        candidates = (undominated >> start) << start
        # A branch is dead as soon as some vertex can no longer be dominated
        # by any remaining candidate.
        rest = undominated
        while rest:
            low = rest & -rest
            if not closed[low.bit_length() - 1] & candidates:
                return
            rest ^= low
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            yield from walk(chosen | low, dominated | closed[v], v + 1)
            candidates ^= low

    return walk(0, 0, 0)


def _mis_profile(
    graph: Graph, cap: int, watched: int = 0
) -> tuple[WellCoveredReport, dict[int, int], list[IsolatableWitness]]:
    """One enumeration pass: the well-covered report (with the first sets in
    enumeration order of the largest and the smallest size), the map
    size -> number of maximal independent sets of that size, and the
    isolatable vertices in the mask ``watched``, ascending.

    x is isolatable iff some maximal independent set S containing x leaves
    every neighbour of x with a second neighbour in S; then S - {x} isolates
    x, and the first such S in enumeration order gives the lexicographically
    first certificate.  Sets holding no watched vertex cost nothing extra."""
    _check_cap(graph.n, cap)
    adj = graph.adj
    counts = [0] * (graph.n + 1)
    alpha, low = -1, graph.n + 1
    big = small = 0
    found: dict[int, int] = {}
    for mask in _mis_masks(graph):
        size = mask.bit_count()
        counts[size] += 1
        if size > alpha:
            alpha, big = size, mask
        if size < low:
            low, small = size, mask
        if watched & mask:
            once = twice = 0
            for v in iter_bits(mask):
                twice |= once & adj[v]
                once |= adj[v]
            for x in iter_bits(watched & mask):
                if not adj[x] & ~twice:
                    found[x] = mask ^ (1 << x)
                    watched ^= 1 << x
    report = WellCoveredReport(
        verdict=alpha == low,
        alpha=alpha,
        min_maximal=low,
        witness_max=VertexSet(big, graph.n),
        witness_min=VertexSet(small, graph.n),
    )
    histogram = {size: count for size, count in enumerate(counts) if count}
    isolatable = [
        IsolatableWitness(x, VertexSet(cert, graph.n)) for x, cert in sorted(found.items())
    ]
    return report, histogram, isolatable


def independence_number(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Size of a largest independent set."""
    return _mis_profile(graph, cap)[0].alpha


def mis_size_histogram(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Map size -> number of maximal independent sets of that size."""
    return _mis_profile(graph, cap)[1]


def well_covered(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Fast verdict only: stops at the first size disagreement."""
    _check_cap(graph.n, cap)
    masks = _mis_masks(graph)
    first = next(masks).bit_count()
    return all(mask.bit_count() == first for mask in masks)


def is_well_covered(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> WellCoveredReport:
    """Complete report: verdict, extreme sizes, and certifying sets.

    Enumerates every maximal independent set so that both extremes are
    certified; use :func:`well_covered` when only the verdict matters.
    """
    return _mis_profile(graph, cap)[0]


def isolatable_vertices(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[IsolatableWitness]:
    """All isolatable vertices, ascending, each with a certifying set.

    x is isolatable iff some independent set I satisfies G - N[I] = {x}.
    The certificate is the lexicographically first maximal independent set
    of G - N[x] that dominates N(x), read off the one enumeration pass of G.
    """
    return _mis_profile(graph, cap, graph.full_mask)[2]


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
    _check_cap(graph.n, cap)

    def stage(remaining: int, prefix: tuple[VertexSet, ...]) -> Iterator[GreedyDecomposition]:
        if not remaining:
            yield GreedyDecomposition(graph.n, prefix)
            return
        for block in _mis_masks(graph, remaining):
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
        if not _maximal_independent_within(graph, remaining, block.mask):
            return False
        remaining &= ~block.mask
    return remaining == 0


def diagonal_set(
    left: GreedyDecomposition,
    right: GreedyDecomposition,
    index_map: ProductIndexMap,
) -> VertexSet:
    """Union of the blockwise rectangles A_i x B_i, i up to the shorter
    decomposition.  Always maximal independent in the Cartesian product."""
    if left.n != index_map.n_left or right.n != index_map.n_right:
        raise ValueError("decompositions do not match the index map hosts")
    depth = min(len(left.blocks), len(right.blocks))
    mask = 0
    for i in range(depth):
        mask |= index_map.rectangle(left.blocks[i], right.blocks[i]).mask
    return VertexSet(mask, index_map.size)


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
