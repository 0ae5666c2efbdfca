"""Exhaustive isomorphism-free generation of small simple graphs.

Graphs on n vertices are identified with their upper-triangle adjacency
bit-strings in column-major order (the graph6 bit order): column j holds the
pairs (0, j), ..., (j-1, j).  The canonical form of a class is the
lexicographically least bit-string over all vertex relabelings.

Generation is orderly (Read, "Every one a winner", 1978; McKay,
"Isomorph-free exhaustive generation", 1998) and rests on a prefix lemma:
the first k columns of a canonical string are the canonical string of the
subgraph on vertices 0..k-1, since a smaller relabeling of that subgraph
would extend, fixing the other vertices, to a smaller string of the whole.
So every canonical graph of order n is a canonical graph of order n-1 plus
one last column, the neighbour set of the new vertex.  Each level extends
every canonical parent by every column and keeps the children no relabeling
makes smaller; taking parents and columns in ascending order yields the
output already sorted, exactly one representative per class.

Children are filtered before that test by the parent's twins, two
vertices u < v with the same neighbours apart from each other.  A column
holding u but not v is skipped: swapping u and v is an automorphism of the
parent, and it maps the child to one with the same prefix and a smaller
last column, since the pair (u, k) is the more significant bit, so the
child cannot be canonical.  Before that, each parent's columns start at
the least one whose first m bits are, for every old vertex m, at least the
parent's column m.  Swapping m with the new vertex fixes columns 0..m-1 and
makes column m those first m bits, so a smaller prefix is a smaller string.
The outputs are valid by construction and are not checked again.

The cap is n = 8 (12,346 classes, about 1.8 s on one CPU of a 2-CPU host
with Python 3.11); larger corpora must be supplied externally as graph6
files.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph

GENERATION_CAP = 8


def _is_canonical(adj: tuple[int, ...]) -> bool:
    """True when no relabeling gives a smaller string than the identity.

    A depth-first search picks the vertex p[j] to put at position j.  Column
    j of the relabeled string is the adjacency of p[j] to p[0], ..., p[j-1],
    and its first differing bit against the identity's column decides the
    order.  The free vertices are refined by the rows of the placed ones in
    turn (McKay, "Practical graph isomorphism", 1981): at position i, the
    free vertices still tied with the identity split into those adjacent to
    p[i] and the rest.  If the identity's column has the pair (i, j), a tied
    vertex outside p[i]'s row has a smaller column, which proves the graph
    is not canonical; if not, the tied vertices in the row have a larger
    one, which prunes them.  The vertices tied to the end are tried in
    ascending order.  Of two free twins (same neighbours apart from each
    other) only the first is tried: swapping them is an automorphism that
    fixes the placed vertices, so their subtrees hold the same strings.
    """
    n = len(adj)
    target = [adj[j] & ((1 << j) - 1) for j in range(n)]
    rows = [0] * n

    def search(j: int, free: int) -> bool:
        if not free:
            return True
        want = target[j]
        ties = free
        for i in range(j):
            if want >> i & 1:
                if ties & ~rows[i]:
                    return False
                ties &= rows[i]
            else:
                ties &= ~rows[i]
                if not ties:
                    return True
        tried: list[int] = []
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            row = adj[v]
            for u in tried:
                if adj[u] & ~(1 << v) == row & ~(1 << u):
                    break
            else:
                tried.append(v)
                rows[j] = row
                if not search(j + 1, free ^ low):
                    return False
        return True

    return search(0, (1 << n) - 1)


def generate_levels(n: int) -> Iterator[list[Graph]]:
    """The classes of each order 1, ..., n in turn, each order's list as
    :func:`generate_all_graphs` gives it; every level is built once, from
    the one below it."""
    if not 0 <= n <= GENERATION_CAP:
        raise ValueError(f"generation order must be between 0 and {GENERATION_CAP}")
    level: list[tuple[int, ...]] = [()]
    for k in range(n):
        # Neighbour sets of the new vertex k in ascending order of its
        # column, whose most significant bit is the pair (0, k).
        columns = [int(f"{c:0{k}b}"[::-1], 2) for c in range(1 << k)]
        children = []
        for rows in level:
            # The column bound: read from the pair (0, k), the first m bits
            # of columns[c] are c >> (k - m), which is at least the parent's
            # column m (read likewise) exactly when c >= that column << (k - m).
            bound = max(
                (int(f"{rows[m] & ((1 << m) - 1):0{m}b}"[::-1], 2) << k - m for m in range(1, k)),
                default=0,
            )
            twins = [
                (1 << u, 1 << v)
                for v in range(k)
                for u in range(v)
                if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
            ]
            for s in columns[bound:]:
                # The twin rule: skip a column holding u but not v.
                for bit_u, bit_v in twins:
                    if s & bit_u and not s & bit_v:
                        break
                else:
                    child = tuple(r | (s >> i & 1) << k for i, r in enumerate(rows)) + (s,)
                    if _is_canonical(child):
                        children.append(child)
        level = children
        yield [Graph._derived(k + 1, rows) for rows in level]


def generate_all_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of simple graphs
    on n vertices, sorted by canonical adjacency bit-string."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"generation order must be between 1 and {GENERATION_CAP}")
    *_, top = generate_levels(n)
    return top
