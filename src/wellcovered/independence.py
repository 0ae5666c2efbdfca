"""Every search of the package: maximal independent set enumeration,
well-coveredness, isolatable vertices and the automorphism orbits that prune
the product searches.  The checks that certify their results, of
independence and maximal independence, live in ``graphs``, which searches
nothing.

Enumeration is exponential by nature; every entry point takes an order cap
and raises :class:`CapExceeded` before doing any work when the input is too
large.  Every set an entry point returns is an int mask, bit v for vertex
v, as in ``graphs``.  All outputs are deterministic: maximal independent
sets come in lexicographic order of their ascending vertex sequences.

Everything runs on depth-first loops in that order.  The walk,
:func:`_walk`, hands each maximal independent set of an induced subgraph
(that also dominates some target vertices) to a callback, which can end it;
it serves every full enumeration (the enumeration itself and
:func:`_mis_profile`, the size histogram and the well-covered report of a
graph walked in full) and, stopped at its first set, the certificate search
of each isolatable vertex x over G - N[x], run only once a local test over
the second neighbourhood of x shows that a certificate exists.  Two
branch-and-bound loops over the same order give the well-covered report of
every graph not walked in full, which the tests check against the walk's,
without visiting the sets whose sizes their bounds rule out:
:func:`_largest` cuts by a greedy clique cover of the candidates,
:func:`_smallest` by a packing of undominated vertices with disjoint
dominator sets, taken in ascending degree, built once per node and updated
as each sibling drops a candidate; a node ends before its candidates run
out, since each undominated vertex is retested as its dominators drop.
Both run once per connected component, and the union of the components'
first sets is the first set (:func:`is_well_covered` says why).

Both searches can also prune by symmetry (McKay-Piperno, "Practical graph
isomorphism II", 2014), given orbit rows.  The orbit rows of a graph of
order n are n + 1 entries: entry s maps each vertex v >= s to the mask of
its orbit under a group of automorphisms that fix every vertex below s, or
is None when each of those orbits is the vertex alone.
:func:`stabilizer_orbits` gives the rows of a graph's whole automorphism
group, and :func:`product_orbits` those of Aut(G) × Aut(H) on G □ H, from
H's rows and G's part, which reads only G's rows and the order of H
(:func:`left_product_orbits`).  Once a node at start s has explored its
child v, every vertex of the orbit of v leaves the remaining siblings and
is banned below them: it must still be dominated, but is never chosen.  A
set of the node's family holding w = σ(v), with σ fixing every vertex
below s, maps under σ⁻¹ to a set of the node's family of the same size
holding v, which an explored branch has already held or ruled out, so the
cut set cannot beat the best.  The first extreme set has no earlier set of
its size, so it is never cut, and every report stays the same.
``theorem`` passes the product rows for each component product it
searches; factors are searched without.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .graphs import (
    CapExceeded,
    Graph,
    _K1,
    _rectangle_mask,
    component_masks,
    iter_bits,
)

DEFAULT_ENUMERATION_CAP = 36


class WellCoveredReport(NamedTuple):
    """Outcome of the well-covered decision, held as its two certifying
    sets: the masks of the first sets in enumeration order attaining the
    largest and the smallest size of a maximal independent set.  The sizes
    and the verdict are read off the two masks, so a report cannot disagree
    with its own sets.
    """

    witness_max: int
    witness_min: int

    @property
    def alpha(self) -> int:
        return self.witness_max.bit_count()

    @property
    def min_maximal(self) -> int:
        return self.witness_min.bit_count()

    @property
    def verdict(self) -> bool:
        """True iff every maximal independent set has the same size."""
        return self.alpha == self.min_maximal


class IsolatableWitness(NamedTuple):
    """A vertex x with an independent set whose closed-neighborhood deletion
    leaves exactly {x}."""

    vertex: int
    certificate: int


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceeded(f"graph order {order} exceeds enumeration cap {cap}")


def _greedy_rows(
    left: Graph, right: Graph, allowed: Sequence[int], chosen: Sequence[int]
) -> list[int]:
    """Extend the independent rows ``chosen`` of left □ right (see ``graphs``)
    to a maximal independent set of the subgraph induced by the rows
    ``allowed``: each allowed vertex, in ascending product index, joins when
    no chosen vertex is its neighbour.  Rows are taken in order, so a row's
    neighbours in the left factor are final below it and as given above it."""
    adj, chosen = right.adj, list(chosen)
    for g, near in enumerate(left.adj):
        row = chosen[g]
        free = allowed[g] & ~row
        while free and near:
            low = near & -near
            free &= ~chosen[low.bit_length() - 1]
            near ^= low
        while free:
            low = free & -free
            neighbours = adj[low.bit_length() - 1]
            free ^= low
            if not neighbours & row:
                row |= low
                free &= ~neighbours
        chosen[g] = row
    return chosen


def _greedy_within(graph: Graph, allowed_mask: int, chosen_mask: int) -> int:
    """Extend an independent ``chosen_mask`` to a maximal independent set of
    G[allowed_mask] by each allowed vertex, ascending, with no chosen
    neighbour: the one-row case of :func:`_greedy_rows`."""
    return _greedy_rows(_K1, graph, (allowed_mask,), (chosen_mask,))[0]


def enumerate_maximal_independent_sets(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[int]:
    """The mask of every maximal independent set exactly once.

    Emission order is lexicographic on the ascending vertex sequence, so the
    first emitted set is the greedy one.  The cap is checked first; then the
    whole walk runs at once and the result iterates over the list it built
    (at cap 36, at most 3^12 masks), so stopping early saves no walk.
    """
    _check_cap(graph.n, cap)
    masks: list[int] = []
    _walk(graph, masks.append)
    return iter(masks)


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


# Orbit rows, in the format of the module docstring, and G's part of G □ H's.
Orbits = Sequence["tuple[int, ...] | None"]
LeftOrbits = tuple[int, list[list[int]], tuple["tuple[int, ...] | None", ...]]


def stabilizer_orbits(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The orbit rows of Aut(G), with no None entry: row k maps every
    vertex, those below k to themselves.

    The rows are built from k = n down.  The automorphisms fixing 0..k-1
    are generated by those fixing 0..k together with one that maps k to w
    for each w in the orbit of k.  So row k is row k+1 joined, by
    union-find, along the cycles of the automorphisms found, each by one
    backtracking search.  A vertex w is tried only when its class so far is
    neither the class of k nor one a failed search has ruled out.  The
    group is never listed: K_n and the empty graph have n! automorphisms
    and take one search per row."""
    n, adj = graph.n, graph.adj
    degree = [row.bit_count() for row in adj]
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rows = [tuple(1 << v for v in range(n))] * (n + 1)
    for k in range(n - 2, -1, -1):
        missed = []
        for w in range(k + 1, n):
            root = find(w)
            if (
                root == find(k)
                or degree[w] != degree[k]
                or any(find(m) == root for m in missed)
            ):
                continue
            image = _automorphism(adj, degree, k, w)
            if image is None:
                missed.append(w)
                continue
            for v in range(k, n):
                parent[find(v)] = find(image[v])
        orbit: dict[int, int] = {}
        for v in range(n):
            orbit[find(v)] = orbit.get(find(v), 0) | 1 << v
        rows[k] = tuple(orbit[find(v)] for v in range(n))
    return tuple(rows)


def _automorphism(
    adj: tuple[int, ...], degree: list[int], k: int, w: int
) -> list[int] | None:
    """The images of an automorphism that fixes 0, ..., k-1 and maps k to
    w, or None when there is none.  Vertices are mapped in breadth-first
    order from k, each to an unused vertex of its degree whose neighbours
    among the images so far are the images of its own mapped neighbours."""
    n, fixed = len(adj), (1 << k) - 1
    order, seen = [], fixed
    for root in range(k, n):
        if not seen >> root & 1:
            seen |= 1 << root
            reached = len(order)
            order.append(root)
            while reached < len(order):
                fresh = adj[order[reached]] & ~seen
                seen |= fresh
                order.extend(iter_bits(fresh))
                reached += 1
    image = list(range(n))
    full = (1 << n) - 1

    def extend(i: int, domain: int, used: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        target = 0
        for u in iter_bits(adj[x] & domain):
            target |= 1 << image[u]
        for y in iter_bits(1 << w if i == 0 else full & ~used):
            if degree[y] == degree[x] and adj[y] & used == target:
                image[x] = y
                if extend(i + 1, domain | 1 << x, used | 1 << y):
                    return True
        return False

    return image if extend(0, fixed, fixed) else None


def left_product_orbits(left: tuple[tuple[int, ...], ...], n_h: int) -> LeftOrbits:
    """G's part of the orbit rows of Aut(G) × Aut(H) on G □ H, from G's rows
    of :func:`stabilizer_orbits` and the order n_h of H alone.

    With s = r·|H| + c, an automorphism (α, β) fixes (0, 0), ..., (0, c-1)
    iff α fixes 0 (when c > 0) and β fixes 0, ..., c-1.  Fixing all of row
    0 forces β to be the identity; α then fixes 0, ..., r-1, and r when
    c > 0.  So the orbit of (g, h) is orbG_k(g) × orbH_j(h), with
    (k, j) = ([c > 0], c) for r = 0 and (r + [c > 0], |H|) for r >= 1,
    where row |H| of H is all single vertices.  An orbit of G spread to one
    bit per row, times a mask of H, is their rectangle: no terms overlap.
    Only starts s < |H| read H's rows, so the part is the count of G's rows
    not all single vertices, rows 0 and 1 spread, and the rows of s >= |H|."""
    n_g = len(left) - 1
    # Rows from the first one equal to the last hold single vertices only.
    plain_g = next(k for k, row in enumerate(left) if row == left[n_g])
    spreads = [[_rectangle_mask(m, 1, n_h) for m in left[k]] for k in range(max(plain_g, 2))]
    by_row = [None] + [
        tuple([a << h for a in spreads[k] for h in range(n_h)]) if k < plain_g else None
        for k in range(1, n_g + 1)
    ]
    rows = [row for r in range(1, n_g) for row in [by_row[r]] + [by_row[r + 1]] * (n_h - 1)]
    return plain_g, spreads[:2], (*rows, None)


def product_orbits(left: LeftOrbits, right: tuple[tuple[int, ...], ...]) -> Orbits:
    """The orbit rows of Aut(G) × Aut(H) on G □ H, in its row-major labels:
    G's part (:func:`left_product_orbits`) joined with H's rows."""
    (plain_g, spreads, rows), n_h = left, len(right) - 1
    plain_h = next(j for j, row in enumerate(right) if row == right[n_h])
    return (*[
        None if k >= plain_g and j >= plain_h else tuple([a * b for a in spreads[k] for b in right[j]])
        for k, j in [(0, 0), *((1, c) for c in range(1, n_h))]
    ], *rows)


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
    entering a node, over the undominated vertices in ascending degree, ties
    by label (one mask per degree, built once per call): each joins with its
    dominators D, and N[D] leaves the scan.  Low degrees first keep each
    N[D] small, where an early vertex of high degree would take most of a
    sparse graph out of the scan.  Dropping the lowest candidate v for the
    next sibling only shrinks dominator sets, so only the undominated
    vertices of N[v] change: the node ends if one has no dominator left,
    and one whose dominators now miss those in use joins.  Any such packing
    is a lower bound, so the first smallest set is kept.

    Every undominated vertex has a dominator on entry and is retested as
    its dominators drop, so the node ends, at the latest when one loses
    its last, before its candidates run out.  The packing is not empty, so
    a child is entered only at a room over the node's size of at least 2:
    every set reached is a new best, stored without a test.

    With ``orbits``, each explored child's whole orbit is dropped, and
    banned below the siblings, by the rule of the module docstring, and the
    undominated vertices of the dropped vertices' closed neighbourhoods are
    updated as above.  A banned vertex must still be dominated but is no
    dominator, so the packing and the dead-vertex test only tighten, and
    the first smallest set stays."""
    closed = graph.closed_adj
    rows = orbits or (None,) * (graph.n + 1)
    best_size, best = universe.bit_count() + 1, 0
    by_degree = [0] * (graph.n + 1)
    rest = universe
    while rest:
        low = rest & -rest
        by_degree[closed[low.bit_length() - 1].bit_count()] |= low
        rest ^= low
    runs = tuple(filter(None, by_degree))

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
        for run in runs:
            pending = rest & run
            while pending:
                low = pending & -pending
                dominators = closed[low.bit_length() - 1] & candidates
                need += 1
                if not dominators or need >= best_size:
                    return
                used |= dominators
                while dominators:
                    low = dominators & -dominators
                    rest &= ~closed[low.bit_length() - 1]
                    dominators ^= low
                pending &= rest
            if not rest:
                break
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


def mis_size_histogram(graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[int, int]:
    """Map size -> number of maximal independent sets of that size, in
    ascending size: the histogram of :func:`_mis_profile`."""
    return _mis_profile(graph, cap)[0]


def _mis_profile(graph: Graph, cap: int) -> tuple[dict[int, int], WellCoveredReport]:
    """The size histogram and the well-covered report, read off one walk per
    component.  A maximal independent set of a disjoint union is one per
    component, so the components' size counts are convolved, and the report
    is the union of their first largest and first smallest sets, each kept
    as the walk meets its size (:func:`is_well_covered` says why)."""
    _check_cap(graph.n, cap)
    total, big, small = [1], 0, 0
    for part in component_masks(graph):
        counts, first = [0] * (part.bit_count() + 1), {}

        def visit(mask: int) -> None:
            size = mask.bit_count()
            if not counts[size]:
                first[size] = mask
            counts[size] += 1

        _walk(graph, visit, part)
        big, small = big | first[max(first)], small | first[min(first)]
        joined = [0] * (len(total) + len(counts) - 1)
        for a, x in enumerate(total):
            for b, y in enumerate(counts):
                joined[a + b] += x * y
        total = joined
    return {size: count for size, count in enumerate(total) if count}, WellCoveredReport(big, small)


def is_well_covered(
    graph: Graph, cap: int = DEFAULT_ENUMERATION_CAP, orbits: Orbits | None = None
) -> WellCoveredReport:
    """Complete report: verdict, extreme sizes, and certifying sets.

    Two branch-and-bound searches per connected component find the first
    maximum and the first minimum maximal independent set in enumeration
    order, so the report is the one a full enumeration gives, without
    visiting the sets whose sizes the bounds rule out; an isolated vertex,
    its own only maximal independent set, is searched by neither.
    ``orbits``, orbit rows of the graph's automorphisms (see the module
    docstring), prune both searches without changing the report.

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
        if part & (part - 1):
            big |= _largest(graph, part, orbits)
            small |= _smallest(graph, part, orbits)
        else:
            big, small = big | part, small | part
    return WellCoveredReport(big, small)


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
            yield IsolatableWitness(x, certificate)
