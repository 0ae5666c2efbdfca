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
child cannot be canonical.  The outputs are valid by construction and are
not checked again.

The cap is n = 8 (12,346 classes, a few seconds); larger corpora must be
supplied externally as graph6 files.
"""

from __future__ import annotations

from .graphs import Graph, triangle_pairs

GENERATION_CAP = 8


def graph_to_mask(graph: Graph) -> int:
    """Adjacency bit-string of a graph as an integer (first pair bit most
    significant)."""
    mask = 0
    for i, j in triangle_pairs(graph.n):
        mask = (mask << 1) | ((graph.adj[i] >> j) & 1)
    return mask


def _is_canonical(adj: tuple[int, ...]) -> bool:
    """True when no relabeling gives a smaller string than the identity.

    A depth-first search picks the vertex p[j] to put at position j.  Column
    j of the relabeled string depends only on p[0..j], so it is kept as a
    mask of positions (bit i: p[j] is adjacent to p[i]), whose lowest
    differing bit against the identity's column decides the order.  A
    smaller column proves the graph is not canonical and a larger one prunes
    the branch.  Of two free twins (same neighbours apart from each other)
    only the first is tried: swapping them is an automorphism that fixes
    the placed vertices, so their subtrees hold the same strings.  The
    loops over bit masks are written out, since this search is nearly all
    of the generator's time.
    """
    n = len(adj)
    target = [adj[j] & ((1 << j) - 1) for j in range(n)]
    placed = [0] * n

    def search(j: int, free: int) -> bool:
        if not free:
            return True
        want = target[j]
        ties = []
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            diff = placed[v] ^ want
            if not diff:
                ties.append(v)
            elif want & diff & -diff:
                return False
        bit = 1 << j
        tried: list[int] = []
        for v in ties:
            row = adj[v]
            for u in tried:
                if adj[u] & ~(1 << v) == row & ~(1 << u):
                    break
            else:
                tried.append(v)
                rest = free & ~(1 << v)
                nbrs = row & rest
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    placed[low.bit_length() - 1] |= bit
                ok = search(j + 1, rest)
                nbrs = row & rest
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    placed[low.bit_length() - 1] ^= bit
                if not ok:
                    return False
        return True

    return search(0, (1 << n) - 1)


def generate_all_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of simple graphs
    on n vertices, sorted by canonical adjacency bit-string."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"generation order must be between 1 and {GENERATION_CAP}")
    level: list[tuple[int, ...]] = [()]
    for k in range(n):
        # Neighbour sets of the new vertex k in ascending order of its
        # column, whose most significant bit is the pair (0, k).
        columns = [int(f"{c:0{k}b}"[::-1], 2) for c in range(1 << k)]
        children = []
        for rows in level:
            twins = [
                (1 << u, 1 << v)
                for v in range(k)
                for u in range(v)
                if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
            ]
            for s in columns:
                # The twin rule: skip a column holding u but not v.
                for bit_u, bit_v in twins:
                    if s & bit_u and not s & bit_v:
                        break
                else:
                    child = tuple(r | (s >> i & 1) << k for i, r in enumerate(rows)) + (s,)
                    if _is_canonical(child):
                        children.append(child)
        level = children
    return [Graph._derived(n, rows) for rows in level]
