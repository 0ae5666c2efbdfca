"""Independent-set machinery: maximal independent set enumeration,
well-coveredness, the independence number and isolatable vertices.

Enumeration is exponential by nature; every entry point takes an order cap
and raises :class:`CapExceeded` before doing any work when the input is too
large.  All outputs are deterministic: maximal independent sets come in
lexicographic order of their ascending vertex sequences.

Everything runs on depth-first loops in that order.  The walk,
:func:`_walk`, hands each maximal independent set of an induced subgraph
(that also dominates some target vertices) to a callback, which can end it;
it serves every full enumeration (size histograms and the early-exit
verdict of :func:`well_covered`) and, stopped at its first set, the
certificate search of each isolatable vertex x over G - N[x], run only
once a local test over the second neighbourhood of x shows that a
certificate exists.  Two branch-and-bound loops over the same order give
the well-covered report and the independence number without visiting the
sets whose sizes their bounds rule out: :func:`_largest` cuts by a greedy
clique cover of the candidates, :func:`_smallest` by a packing of
undominated vertices with disjoint dominator sets, built once per node and
updated as each sibling drops a candidate.  Both run once per connected
component, and the components' first sets are joined: the extreme sets of
a disjoint union are unions of extreme sets of its components, and of two
sets of equal size the first is the one holding the least element of their
symmetric difference, so the union of the first sets is the first set even
when the components' labels interleave.

Both searches can also prune by symmetry (McKay-Piperno, "Practical graph
isomorphism II", 2014), given orbit rows: entry s maps each vertex v >= s
to its orbit under automorphisms that fix every vertex below s.  Once a
node at start s has explored its child v, every vertex of the orbit of v
leaves the remaining siblings and is banned below them: it must still be
dominated, but is never chosen.  A set of the node's family holding
w = σ(v), with σ fixing every vertex below s, maps under σ⁻¹ to a set of
the node's family of the same size holding v, which an explored branch has
already held or ruled out, so the cut set cannot beat the best.  The first
extreme set has no earlier set of its size, so it is never cut, and every
report stays the same.  ``theorem``
passes the rows of Aut(G) × Aut(H) for each component product it
searches; factors are searched without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .graphs import (
    CapExceeded,
    Graph,
    VertexSet,
    _check_set,
    component_masks,
    iter_bits,
)

DEFAULT_ENUMERATION_CAP = 36

# Entry s maps each vertex v >= s to the mask of its orbit under a group of
# automorphisms that fix every vertex below s; None stands for {v} alone.
Orbits = Sequence["tuple[int, ...] | None"]


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


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(f"graph order {order} exceeds enumeration cap {cap}")


def is_independent(graph: Graph, s: VertexSet) -> bool:
    """True iff no edge joins two members of S."""
    _check_set(graph, s)
    return _greedy_within(graph, s.mask, 0) == s.mask


def is_maximal_independent(graph: Graph, s: VertexSet) -> bool:
    """True iff S is independent and dominating (no vertex can be added)."""
    _check_set(graph, s)
    return _maximal_independent_within(graph, graph.full_mask, s.mask)


def _maximal_independent_within(graph: Graph, allowed_mask: int, chosen_mask: int) -> bool:
    """Maximal independence of ``chosen_mask`` inside the subgraph induced by
    ``allowed_mask``, checked without building the subgraph."""
    if chosen_mask & ~allowed_mask:
        return False
    adj, dominated, rest = graph.adj, chosen_mask, chosen_mask
    while rest:
        low = rest & -rest
        row = adj[low.bit_length() - 1]
        if row & chosen_mask:
            return False
        dominated |= row
        rest ^= low
    return allowed_mask & ~dominated == 0


def _greedy_within(graph: Graph, allowed_mask: int, chosen_mask: int) -> int:
    """Extend an independent ``chosen_mask`` to a maximal independent set of
    G[allowed_mask] by each allowed vertex, ascending, with no chosen neighbour."""
    adj, free = graph.adj, allowed_mask & ~chosen_mask
    while free:
        low = free & -free
        row = adj[low.bit_length() - 1]
        free ^= low
        if not row & chosen_mask:
            chosen_mask |= low
            free &= ~row
    return chosen_mask


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


def _largest(graph: Graph, universe: int, orbits: Orbits | None = None) -> int:
    """Mask of the first maximum independent set of the subgraph induced by
    ``universe``, in the order of :func:`_walk`, by branch and bound over the
    same walk.  A branch can add at most one vertex per clique of a cover of
    its candidates, so it is cut, with every sibling still waiting (their
    candidates are a subset), once its size plus a greedy clique cover
    cannot beat the best set found, which keeps the first largest set.
    With ``orbits``, each explored child's orbit leaves the siblings and is
    banned below them, by the rule of the module docstring; the cover then
    bounds only the sets still allowed, and the first largest set stays.

    Callers pass one connected component at a time: a search of a disjoint
    union would multiply the components' work where one per component adds
    it (see :func:`is_well_covered` for why the union of the first sets is
    the first set)."""
    adj, closed = graph.adj, graph.closed_adj
    rows = orbits or (None,) * (graph.n + 1)
    best_size, best = -1, 0

    def walk(chosen: int, size: int, dominated: int, start: int, banned: int) -> None:
        nonlocal best_size, best
        undominated = universe & ~dominated
        if not undominated:
            if size > best_size:
                best_size, best = size, chosen
            return
        candidates = (undominated >> start) << start
        if banned:
            candidates &= ~banned
        row = rows[start]
        while candidates:
            # Each clique grows from the lowest uncovered candidate through
            # its lowest common neighbours.
            room, rest = best_size - size, candidates
            while rest and room >= 0:
                low = rest & -rest
                common = adj[low.bit_length() - 1] & rest
                rest ^= low
                while common:
                    low = common & -common
                    common &= adj[low.bit_length() - 1]
                    rest ^= low
                room -= 1
            if room >= 0:
                return
            low = candidates & -candidates
            v = low.bit_length() - 1
            walk(chosen | low, size + 1, dominated | closed[v], v + 1, banned)
            if row is None:
                candidates ^= low
            else:
                candidates &= ~row[v]
                banned |= row[v]

    walk(0, 0, 0, 0, 0)
    return best


def _smallest(graph: Graph, universe: int, orbits: Orbits | None = None) -> int:
    """Mask of the first minimum maximal independent set of the subgraph
    induced by ``universe``, in the order of :func:`_walk`, by branch and
    bound over the same walk, one component at a time as in :func:`_largest`.

    Undominated vertices with pairwise disjoint dominator sets among the
    candidates each need a vertex of their own, so a node ends, with every
    sibling still waiting, once its size plus such a packing cannot beat the
    best, or once some vertex has no dominator left.  The packing is built on
    entering a node, over the undominated vertices ascending: each joins
    with its dominators D, and N[D] leaves the scan.  Dropping the lowest
    candidate v for the next sibling only shrinks dominator sets, so only
    the undominated vertices of N[v] change: the node ends if one has no
    dominator left, and one whose dominators now miss those in use joins.
    Any such packing is a lower bound, so the first smallest set is kept.

    The packing holds the lowest undominated vertex from entry on.  So the
    node ends before its candidates run out, and a child is entered only at
    a room over the packing of at least 2: every set reached is a new best,
    stored without a test.

    With ``orbits``, each explored child's whole orbit is dropped, and
    banned below the siblings, by the rule of the module docstring, and the
    undominated vertices of the dropped vertices' closed neighbourhoods are
    updated as above.  A banned vertex must still be dominated but is no
    dominator, so the packing and the dead-vertex test only tighten, and
    the first smallest set stays."""
    closed = graph.closed_adj
    rows = orbits or (None,) * (graph.n + 1)
    best_size, best = universe.bit_count() + 1, 0

    def walk(chosen: int, size: int, dominated: int, start: int, banned: int) -> None:
        nonlocal best_size, best
        undominated = universe & ~dominated
        if not undominated:
            best_size, best = size, chosen
            return
        candidates = (undominated >> start) << start
        if banned:
            candidates &= ~banned
        need, used, rest = size, 0, undominated
        while rest:
            low = rest & -rest
            dominators = closed[low.bit_length() - 1] & candidates
            need += 1
            if not dominators or need >= best_size:
                return
            used |= dominators
            while dominators:
                low = dominators & -dominators
                rest &= ~closed[low.bit_length() - 1]
                dominators ^= low
        row = rows[start]
        while need < best_size:
            low = candidates & -candidates
            v = low.bit_length() - 1
            walk(chosen | low, size + 1, dominated | closed[v], v + 1, banned)
            if row is None:
                candidates ^= low
                touched = closed[v] & undominated
            else:
                dropped = row[v] & candidates
                candidates ^= dropped
                banned |= row[v]
                touched = 0
                while dropped:
                    low = dropped & -dropped
                    touched |= closed[low.bit_length() - 1]
                    dropped ^= low
                touched &= undominated
            while touched:
                low = touched & -touched
                dominators = closed[low.bit_length() - 1] & candidates
                if not dominators:
                    return
                if not dominators & used:
                    used |= dominators
                    need += 1
                touched ^= low

    walk(0, 0, 0, 0, 0)
    return best


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
    return sum(_largest(graph, part).bit_count() for part in component_masks(graph))


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


def is_well_covered(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP, orbits: Orbits | None = None
) -> WellCoveredReport:
    """Complete report: verdict, extreme sizes, and certifying sets.

    Two branch-and-bound searches per connected component find the first
    maximum and the first minimum maximal independent set in enumeration
    order, so the report is the one a full enumeration gives, without
    visiting the sets whose sizes the bounds rule out; use
    :func:`well_covered` when only the verdict matters.  ``orbits``, orbit
    rows of the graph's automorphisms (see the module docstring), prune
    both searches without changing the report.

    The union of the components' first sets is the graph's first set, even
    when the components' labels interleave.  Every largest (or smallest
    maximal) set of a disjoint union is a union of one largest (smallest
    maximal) set per component.  Two sets of equal size are ordered by the
    least element of their symmetric difference, which lies in one
    component, where the first set of that component holds it.
    """
    _check_cap(graph.n, cap)
    big = small = 0
    for part in component_masks(graph):
        big |= _largest(graph, part, orbits)
        small |= _smallest(graph, part, orbits)
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
    return list(_isolatable(graph))


def _isolatable(graph: Graph) -> Iterator[IsolatableWitness]:
    """The isolatable vertices of :func:`isolatable_vertices`, each searched
    only when the caller asks for the next, so ``next`` stops at the first."""
    for x in range(graph.n):
        certificate = _isolating_set(graph, x)
        if certificate is not None:
            yield IsolatableWitness(x, VertexSet(certificate, graph.n))
