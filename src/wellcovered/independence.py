"""Independent-set machinery: maximal independent set enumeration,
well-coveredness, isolatable vertices, greedy independent decompositions,
diagonal sets, and the clique-remainder / swap-step primitives.

Enumeration is exponential by nature; every entry point takes an order cap
and raises :class:`CapExceeded` before doing any work when the input is too
large.  All outputs are deterministic: maximal independent sets come in
lexicographic order of their ascending vertex sequences.

Everything runs on two depth-first skeletons in that order.  The walk,
:func:`_walk`, hands each maximal independent set of an induced subgraph
(that also dominates some target vertices) to a callback, which can end it;
it serves every full enumeration (size histograms, the early-exit verdict
of :func:`well_covered`, greedy decompositions) and, stopped at its first
set, the certificate search of each isolatable vertex x over G - N[x], run
only once a local test over the second neighbourhood of x shows that a
certificate exists.  The search, :func:`_search`, is branch and bound over
the same order with a pluggable bound: a clique cover finds the first
maximum independent set, a dominator packing the first minimum maximal one,
so the well-covered report and the independence number come without
visiting the sets whose sizes the bounds rule out.  The search runs once per
connected component, and the components' first sets are joined: the
extreme sets of a disjoint union are unions of extreme sets of its
components, and of two sets of equal size the first is the one holding the
least element of their symmetric difference, so the union of the first sets
is the first set even when the components' labels interleave.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .graphs import (
    CapExceeded,
    Graph,
    ProductIndexMap,
    SubgraphMap,
    VertexSet,
    _check_set,
    component_masks,
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
    """Every maximal independent set exactly once.

    Emission order is lexicographic on the ascending vertex sequence, so the
    first emitted set is the greedy one.  The cap is checked first; then the
    whole walk runs at once and the result iterates over the list it built
    (at cap 36, at most 3^12 masks), so stopping early saves no walk.
    """
    _check_cap(graph.n, cap)
    masks: list[int] = []
    _walk(graph, masks.append)
    return (VertexSet(mask, graph.n) for mask in masks)


def _walk(
    graph: Graph,
    leaf: Callable[[int], object],
    universe: int | None = None,
    targets: int | None = None,
) -> object:
    """Call ``leaf(mask)`` on each maximal independent set of the subgraph
    induced by ``universe`` (the whole graph by default) that also dominates
    ``targets`` (by default the universe; it must contain the universe), in
    lexicographic order of the sets' ascending vertex sequences.

    A true value from ``leaf`` ends the walk and is returned; a walk that
    runs to its end returns None.  No cap check: callers make it."""
    full = graph.full_mask if universe is None else universe
    targets = full if targets is None else targets
    closed = graph.closed_adj

    def walk(chosen: int, dominated: int, start: int) -> object:
        undominated = targets & ~dominated
        if not undominated:
            return leaf(chosen)
        candidates = ((undominated & full) >> start) << start
        # A branch is dead as soon as some vertex can no longer be dominated
        # by any remaining candidate.
        rest = undominated
        while rest:
            low = rest & -rest
            if not closed[low.bit_length() - 1] & candidates:
                return None
            rest ^= low
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            stop = walk(chosen | low, dominated | closed[v], v + 1)
            if stop:
                return stop
            candidates ^= low
        return None

    return walk(0, 0, 0)


def _search(
    graph: Graph, bound: Callable[[int, int, int], bool], best_size: int, universe: int
) -> int:
    """Mask of the first maximal independent set of the subgraph induced by
    ``universe``, in the order of :func:`_walk`, whose size ``bound`` prefers
    to every earlier one, by branch and bound over the same walk, starting
    from the size ``best_size``.

    ``bound(undominated, candidates, room)``, with ``room`` the best size
    less the current one, is false once no set of the branch can beat the
    best; the branch is then cut, with every sibling still waiting (their
    candidates are a subset).  At a set, where both masks are empty, it
    decides whether the set is better.  Cutting only when no set of a new
    extreme size can remain keeps the first set of that size.

    Callers pass one connected component at a time: the sets of a disjoint
    union are the unions of one set per component, so a search of the whole
    graph would multiply the components' work where one per component adds
    it (see :func:`is_well_covered` for why the union of the first sets is
    the first set)."""
    closed = graph.closed_adj
    best = 0

    def walk(chosen: int, size: int, dominated: int, start: int) -> None:
        nonlocal best_size, best
        undominated = universe & ~dominated
        if not undominated:
            if bound(0, 0, best_size - size):
                best_size, best = size, chosen
            return
        candidates = (undominated >> start) << start
        while candidates and bound(undominated, candidates, best_size - size):
            low = candidates & -candidates
            v = low.bit_length() - 1
            walk(chosen | low, size + 1, dominated | closed[v], v + 1)
            candidates ^= low

    walk(0, 0, 0, 0)
    return best


def _cover_bound(graph: Graph) -> Callable[[int, int, int], bool]:
    """The bound of the largest set, from a best size of -1: a branch can add
    at most one vertex per clique of a cover of its candidates."""
    adj = graph.adj

    def exceeds(undominated: int, candidates: int, room: int) -> bool:
        """True once a greedy clique cover of the candidates needs more than
        ``room`` cliques; each grows from the lowest uncovered candidate
        through its lowest common neighbours."""
        while candidates and room >= 0:
            low = candidates & -candidates
            common = adj[low.bit_length() - 1] & candidates
            candidates ^= low
            while common:
                low = common & -common
                common &= adj[low.bit_length() - 1]
                candidates ^= low
            room -= 1
        return room < 0

    return exceeds


def _packing_bound(graph: Graph) -> Callable[[int, int, int], bool]:
    """The bound of the smallest maximal set, from a best size of the
    universe's order plus one: undominated vertices whose dominators among
    the candidates are pairwise disjoint each need a vertex of their own, and
    a branch is dead when some vertex has no dominator left.

    At a set the test always passes, so every set the search reaches is a
    new best.  A branch is entered only while its parent's packing, which
    always holds the lowest undominated vertex, leaves room after counting
    it: the parent's room is at least 2, so a child's is at least 1."""
    closed = graph.closed_adj

    def below(undominated: int, candidates: int, room: int) -> bool:
        """True while a greedy packing of the undominated vertices, taken
        ascending, by disjoint dominator sets stays under ``room`` and every
        vertex keeps a dominator."""
        used = 0
        while undominated:
            low = undominated & -undominated
            dominators = closed[low.bit_length() - 1] & candidates
            if not dominators & used:
                room -= 1
                if not dominators or room <= 0:
                    return False
                used |= dominators
            undominated ^= low
        return room > 0

    return below


def _report(graph: Graph, big: int, small: int) -> WellCoveredReport:
    """The report certified by a largest and a smallest maximal set."""
    return WellCoveredReport(
        verdict=big.bit_count() == small.bit_count(),
        alpha=big.bit_count(),
        min_maximal=small.bit_count(),
        witness_max=VertexSet(big, graph.n),
        witness_min=VertexSet(small, graph.n),
    )


def _isolating_set(graph: Graph, x: int) -> int | None:
    """Mask of the lexicographically first maximal independent set of
    G - N[x] that dominates N(x), or None when there is none, that is, when
    x is not isolatable.

    Such a set exists iff some independent subset of the second neighbourhood
    of x dominates N(x), since a greedy extension to a maximal independent
    set of G - N[x] keeps it dominating.  That local test runs first, so a
    vertex that is not isolatable costs no search of G - N[x]; the disjoint
    5-cycles that would make the search visit every set never reach it.  The
    search is :func:`_walk` over G - N[x] with N(x) among its targets, the
    vertices it must dominate without choosing them, and it stops at the
    first set."""
    adj, closed = graph.adj, graph.closed_adj
    ring = adj[x]
    universe = graph.full_mask & ~closed[x]

    def covers(undominated: int, allowed: int) -> bool:
        """True iff some independent subset of ``allowed`` dominates the
        ring vertices in ``undominated``; branches on the dominators of the
        lowest one."""
        if not undominated:
            return True
        low = undominated & -undominated
        dominators = adj[low.bit_length() - 1] & allowed
        while dominators:
            pick = dominators & -dominators
            v = pick.bit_length() - 1
            if covers(undominated & ~adj[v], allowed & ~closed[v]):
                return True
            dominators ^= pick
        return False

    if not covers(ring, universe):
        return None
    # The leaf wraps the mask, so that the empty set still stops the walk.
    return _walk(graph, lambda mask: (mask,), universe, universe | ring)[0]


def independence_number(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Size of a largest independent set, summed over the components."""
    _check_cap(graph.n, cap)
    bound = _cover_bound(graph)
    return sum(_search(graph, bound, -1, part).bit_count() for part in component_masks(graph))


def mis_size_histogram(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Map size -> number of maximal independent sets of that size, in
    ascending size.  A maximal independent set of a disjoint union is one
    per component, so each component is walked on its own and the size
    counts are convolved."""
    _check_cap(graph.n, cap)
    total = [1]
    for part in component_masks(graph):
        counts = [0] * (part.bit_count() + 1)

        def visit(mask: int) -> None:
            counts[mask.bit_count()] += 1

        _walk(graph, visit, part)
        joined = [0] * (len(total) + len(counts) - 1)
        for a, x in enumerate(total):
            for b, y in enumerate(counts):
                joined[a + b] += x * y
        total = joined
    return {size: count for size, count in enumerate(total) if count}


def well_covered(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Fast verdict only: a disjoint union is well-covered iff every
    component is, so each component is walked on its own, up to its first
    size disagreement."""
    _check_cap(graph.n, cap)
    for part in component_masks(graph):
        sizes: set[int] = set()

        def differs(mask: int) -> bool:
            sizes.add(mask.bit_count())
            return len(sizes) > 1

        if _walk(graph, differs, part):
            return False
    return True


def is_well_covered(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> WellCoveredReport:
    """Complete report: verdict, extreme sizes, and certifying sets.

    Two branch-and-bound searches per connected component find the first
    maximum and the first minimum maximal independent set in enumeration
    order, so the report is the one a full enumeration gives, without
    visiting the sets whose sizes the bounds rule out; use
    :func:`well_covered` when only the verdict matters.

    The union of the components' first sets is the graph's first set, even
    when the components' labels interleave.  Every largest (or smallest
    maximal) set of a disjoint union is a union of one largest (smallest
    maximal) set per component.  Two sets of equal size are ordered by the
    least element of their symmetric difference, which lies in one
    component, where the first set of that component holds it.
    """
    _check_cap(graph.n, cap)
    cover, packing = _cover_bound(graph), _packing_bound(graph)
    big = small = 0
    for part in component_masks(graph):
        big |= _search(graph, cover, -1, part)
        small |= _search(graph, packing, part.bit_count() + 1, part)
    return _report(graph, big, small)


def isolatable_vertices(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[IsolatableWitness]:
    """All isolatable vertices, ascending, each with a certifying set.

    x is isolatable iff some independent set I satisfies G - N[I] = {x}.
    The certificate is the lexicographically first maximal independent set
    of G - N[x] that dominates N(x), found by a search of G - N[x] that runs
    only when a local test shows one exists; no maximal independent set of
    G itself is enumerated.  The cap applies to the order of G.
    """
    _check_cap(graph.n, cap)
    found = []
    for x in range(graph.n):
        certificate = _isolating_set(graph, x)
        if certificate is not None:
            found.append(IsolatableWitness(x, VertexSet(certificate, graph.n)))
    return found


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
        blocks: list[int] = []
        _walk(graph, blocks.append, remaining)
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
